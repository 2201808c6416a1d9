// AlignmentSession's shrink path: removed design rows leave the Gram and
// the Cholesky factor through the blocked rank-k DOWNDATE (zero
// refactorisations when well-conditioned), results match a fresh session
// up to rounding, and a numerically indefinite downdate falls back to
// EXACTLY ONE counted refactorisation from the exactly-maintained Gram.

#include "src/align/session.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/align/iter_aligner.h"
#include "src/common/rng.h"
#include "src/linalg/cholesky.h"

namespace activeiter {
namespace {

/// Planted problem with anchors (i, i), one noisy feature and a bias
/// column — the same shape the session tests use.
struct ShrinkFixture {
  AlignedPair pair;
  CandidateLinkSet candidates;
  Matrix x;
  std::vector<size_t> labeled;

  explicit ShrinkFixture(size_t users, double noise, uint64_t seed)
      : pair(MakeNets(users)) {
    for (NodeId i = 0; i < users; ++i) {
      EXPECT_TRUE(pair.AddAnchor(i, i).ok());
    }
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> links;
    for (NodeId i = 0; i < users; ++i) {
      for (NodeId j = 0; j < users; ++j) {
        if (i == j || rng.Bernoulli(0.4)) links.emplace_back(i, j);
      }
    }
    x = Matrix(links.size(), 2);
    for (size_t id = 0; id < links.size(); ++id) {
      candidates.Add(links[id].first, links[id].second);
      bool is_true = links[id].first == links[id].second;
      if (is_true && labeled.size() < 3) labeled.push_back(id);
      x(id, 0) = (is_true ? 0.7 : 0.25) + rng.Normal(0.0, noise);
      x(id, 1) = 1.0;
    }
  }

  static AlignedPair MakeNets(size_t users) {
    HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
    a.AddNodes(NodeType::kUser, users);
    HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
    b.AddNodes(NodeType::kUser, users);
    return AlignedPair(std::move(a), std::move(b));
  }
};

/// The full shrink choreography the serve layer performs: index validate →
/// session downdate → candidate tombstone/compact → matrix compaction.
void RemoveRows(ShrinkFixture& f, IncidenceIndex& index,
                AlignmentSession& session, const std::vector<size_t>& ids) {
  ASSERT_TRUE(index.RemoveCandidates(ids).ok());
  ASSERT_TRUE(session.AbsorbRemovedRows(ids).ok());
  for (size_t id : ids) ASSERT_TRUE(f.candidates.Remove(id).ok());
  index.CompactWith(f.candidates.Compact());
  f.x.RemoveRows(ids);
}

TEST(SessionShrinkTest, ShrunkSessionMatchesFreshSessionWithinTolerance) {
  ShrinkFixture f(12, 0.06, 21);
  IncidenceIndex index(f.pair, f.candidates);
  auto session = AlignmentSession::Create(f.x, index, 1.0);
  ASSERT_TRUE(session.ok());
  for (size_t id : f.labeled) session.value().SetPin(id, Pin::kPositive);

  // Remove a handful of unlabeled rows (labeled ids are all < 20 only by
  // luck, so pick removals strictly above them).
  std::vector<size_t> ids;
  for (size_t id = f.labeled.back() + 1; ids.size() < 4 && id < f.x.rows();
       id += 7) {
    ids.push_back(id);
  }
  ASSERT_EQ(ids.size(), 4u);
  const size_t old_rows = f.x.rows();
  const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
  const uint64_t downdates_before =
      CholeskyFactor::TotalRankOneDowndateCount();
  RemoveRows(f, index, session.value(), ids);
  // Zero refactorisations; the blocked downdate counts one per direction.
  EXPECT_EQ(CholeskyFactor::TotalFactorCount(), factors_before);
  EXPECT_EQ(CholeskyFactor::TotalRankOneDowndateCount() - downdates_before,
            ids.size());
  EXPECT_EQ(session.value().size(), old_rows - ids.size());
  EXPECT_EQ(session.value().pinned().size(), old_rows - ids.size());
  // Surviving pins kept their (compacted) positions: the labeled ids all
  // precede the removals, so they are unmoved.
  for (size_t id : f.labeled) {
    EXPECT_EQ(session.value().pinned()[id], Pin::kPositive);
  }

  IterAligner aligner;
  auto via_shrunk = aligner.Align(session.value());
  ASSERT_TRUE(via_shrunk.ok());

  auto fresh = AlignmentSession::Create(f.x, index, 1.0);
  ASSERT_TRUE(fresh.ok());
  for (size_t id : f.labeled) fresh.value().SetPin(id, Pin::kPositive);
  auto via_fresh = aligner.Align(fresh.value());
  ASSERT_TRUE(via_fresh.ok());

  // Downdate arithmetic differs from a fresh factorisation only in
  // rounding; the inferred labels must agree exactly.
  ASSERT_EQ(via_shrunk.value().scores.size(), via_fresh.value().scores.size());
  EXPECT_LT(
      (via_shrunk.value().scores - via_fresh.value().scores).NormInf(),
      1e-9);
  for (size_t i = 0; i < via_fresh.value().y.size(); ++i) {
    EXPECT_EQ(via_shrunk.value().y(i), via_fresh.value().y(i)) << i;
  }
}

TEST(SessionShrinkTest, IndefiniteDowndateFallsBackToExactlyOneRefactor) {
  ShrinkFixture f(10, 0.05, 23);
  // Shrink the first column to tiny uncorrelated noise so the Gram keeps
  // a thick SPD margin even after the catastrophic cancellation below.
  Rng noise(101);
  for (size_t i = 0; i < f.x.rows(); ++i) f.x(i, 0) = 0.05 * noise.Normal();
  IncidenceIndex index(f.pair, f.candidates);
  auto session = AlignmentSession::Create(f.x, index, 1.0);
  ASSERT_TRUE(session.ok());

  // Grow by one candidate whose row is (1e9, 0) — absorbing mass cannot
  // fail. 1e9² = 1e18 is exact in doubles and the existing column mass
  // (~1.5) is far below half an ulp of 1e18, so after the absorb the
  // factor's L₀₀ is EXACTLY 1e9: the later downdate computes
  // r² = L₀₀² − w₀² = 0 and must take the indefinite exit
  // deterministically, not by luck of rounding.
  const size_t grown_id = f.x.rows();
  f.candidates.Add(9, 3);
  index.SyncWithCandidates(index.users_first(), index.users_second());
  Matrix huge(1, 2);
  huge(0, 0) = 1.0e9;
  huge(0, 1) = 0.0;
  f.x.AppendRows(huge);
  ASSERT_TRUE(session.value().AbsorbAppendedRows(grown_id).ok());

  // Shrink it back out: the factor downdate goes indefinite, the
  // fallback refactors ONCE from the downdated Gram (whose += / −= of
  // the bitwise-identical row products cancels back to a comfortably
  // SPD matrix), and the caller-visible call still succeeds.
  std::vector<size_t> ids = {grown_id};
  const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
  RemoveRows(f, index, session.value(), ids);
  EXPECT_EQ(CholeskyFactor::TotalFactorCount(), factors_before + 1);
  EXPECT_EQ(session.value().size(), f.x.rows());

  // The refactored session stays serviceable: finite solves, and a
  // subsequent normal-magnitude absorb rides the rank-1 path again with
  // no further refactorisation.
  Vector rhs(f.x.rows());
  for (size_t i = 0; i < rhs.size(); ++i) rhs(i) = 1.0;
  Vector solved = session.value().solver().Solve(rhs);
  for (size_t i = 0; i < solved.size(); ++i) {
    EXPECT_TRUE(std::isfinite(solved(i))) << i;
  }
  const size_t next_id = f.x.rows();
  f.candidates.Add(3, 7);
  index.SyncWithCandidates(index.users_first(), index.users_second());
  Matrix normal(1, 2);
  normal(0, 0) = 0.1;
  normal(0, 1) = 1.0;
  f.x.AppendRows(normal);
  ASSERT_TRUE(session.value().AbsorbAppendedRows(next_id).ok());
  EXPECT_EQ(CholeskyFactor::TotalFactorCount(), factors_before + 1);
}

TEST(SessionShrinkTest, RejectsBadRemovalArguments) {
  ShrinkFixture f(8, 0.05, 27);
  IncidenceIndex index(f.pair, f.candidates);
  auto session = AlignmentSession::Create(f.x, index, 1.0);
  ASSERT_TRUE(session.ok());

  EXPECT_EQ(session.value().AbsorbRemovedRows({f.x.rows()}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.value().AbsorbRemovedRows({3, 3}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.value().AbsorbRemovedRows({4, 2}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.value().AbsorbRemovedRows({}).ok());
  EXPECT_EQ(session.value().size(), f.x.rows());

  // Shared-prepared sessions may not shrink, same as growth.
  auto sibling = AlignmentSession::CreateFromPrepared(
      session.value().shared_prepared(), index, 2.0);
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(sibling.value().AbsorbRemovedRows({0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionShrinkTest, RidgeDowndateRejectsMismatchedWidthAndKeepsFactor) {
  ShrinkFixture f(8, 0.05, 29);
  IncidenceIndex index(f.pair, f.candidates);
  auto session = AlignmentSession::Create(f.x, index, 1.0);
  ASSERT_TRUE(session.ok());
  RidgeSolver solver = session.value().solver();

  Matrix wrong_width(1, f.x.cols() + 1);
  EXPECT_FALSE(solver.AbsorbRemovedRows(wrong_width).ok());

  // All-or-nothing: a downdate of mass that was never absorbed goes
  // indefinite and must leave the factor exactly as it was.
  Vector rhs(f.x.rows());
  for (size_t i = 0; i < rhs.size(); ++i) rhs(i) = 1.0;
  const Vector before = solver.Solve(rhs);
  Matrix alien(1, f.x.cols());
  alien(0, 0) = 1.0e8;
  alien(0, 1) = 1.0;
  EXPECT_FALSE(solver.AbsorbRemovedRows(alien).ok());
  const Vector after = solver.Solve(rhs);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before(i), after(i)) << i;
  }
}

}  // namespace
}  // namespace activeiter
