#include "src/graph/incidence.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/linalg/sparse_ops.h"

namespace activeiter {
namespace {

AlignedPair MakePair() {
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "net1");
  a.AddNodes(NodeType::kUser, 3);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "net2");
  b.AddNodes(NodeType::kUser, 3);
  return AlignedPair(std::move(a), std::move(b));
}

CandidateLinkSet MakeCandidates() {
  // Links: 0:(0,0) 1:(0,1) 2:(1,0) 3:(1,1) 4:(2,2)
  CandidateLinkSet c;
  c.Add(0, 0);
  c.Add(0, 1);
  c.Add(1, 0);
  c.Add(1, 1);
  c.Add(2, 2);
  return c;
}

TEST(CandidateLinkSetTest, AddReturnsIds) {
  CandidateLinkSet c;
  EXPECT_EQ(c.Add(1, 2), 0u);
  EXPECT_EQ(c.Add(3, 4), 1u);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.link(1).first, 3u);
}

TEST(IncidenceIndexTest, LinksPerUser) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  EXPECT_EQ(index.LinksOfFirst(0), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.LinksOfSecond(0), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(index.LinksOfFirst(2), (std::vector<size_t>{4}));
}

TEST(IncidenceIndexTest, ConflictingLinks) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  // Link 0 = (0,0): conflicts with 1 (shares u1=0) and 2 (shares u2=0).
  EXPECT_EQ(index.ConflictingLinks(0), (std::vector<size_t>{1, 2}));
  // Link 3 = (1,1): first-side conflict 2 comes before second-side 1.
  EXPECT_EQ(index.ConflictingLinks(3), (std::vector<size_t>{2, 1}));
  // Link 4 = (2,2) conflicts with nothing.
  EXPECT_TRUE(index.ConflictingLinks(4).empty());
}

TEST(IncidenceIndexTest, ConflictingLinksListsDuplicatePairOnce) {
  AlignedPair pair = MakePair();
  // Links: 0:(0,0) 1:(0,1) 2:(1,0) 3:(0,0) — 3 duplicates link 0's pair.
  CandidateLinkSet c;
  c.Add(0, 0);
  c.Add(0, 1);
  c.Add(1, 0);
  c.Add(0, 0);
  IncidenceIndex index(pair, c);
  // 3 shares both endpoints with 0: listed on the first side only.
  EXPECT_EQ(index.ConflictingLinks(0), (std::vector<size_t>{1, 3, 2}));
  EXPECT_EQ(index.ConflictingLinks(3), (std::vector<size_t>{0, 1, 2}));
  // Reached through u2=0 only, the duplicates still appear once each.
  EXPECT_EQ(index.ConflictingLinks(2), (std::vector<size_t>{0, 3}));
  EXPECT_EQ(index.ConflictingLinks(1), (std::vector<size_t>{0, 3}));
}

TEST(IncidenceIndexTest, ConflictingLinksSkipTombstonesBeforeCompaction) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  ASSERT_TRUE(c.Remove(1).ok());
  ASSERT_TRUE(index.RemoveCandidates({1}).ok());
  // Link 1 = (0,1) is tombstoned but not yet compacted away.
  EXPECT_EQ(index.ConflictingLinks(0), (std::vector<size_t>{2}));
  EXPECT_EQ(index.ConflictingLinks(3), (std::vector<size_t>{2}));
  // The tombstone itself still resolves its endpoints.
  EXPECT_EQ(index.ConflictingLinks(1), (std::vector<size_t>{0, 3}));
}

TEST(IncidenceIndexTest, IncidenceMatricesMatchDefinition) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  SparseMatrix a1 = index.FirstIncidenceMatrix();
  EXPECT_EQ(a1.rows(), 3u);
  EXPECT_EQ(a1.cols(), 5u);
  EXPECT_EQ(a1.At(0, 0), 1.0);
  EXPECT_EQ(a1.At(0, 1), 1.0);
  EXPECT_EQ(a1.At(1, 2), 1.0);
  EXPECT_EQ(a1.At(2, 4), 1.0);
  // Each column has exactly one 1 (each link touches one user per side).
  Vector col_sums = a1.ColSums();
  for (size_t j = 0; j < 5; ++j) EXPECT_EQ(col_sums(j), 1.0);
}

TEST(IncidenceIndexTest, DegreesAreIncidenceTimesLabels) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  Vector y = {1.0, 0.0, 0.0, 1.0, 1.0};
  Vector d1 = index.FirstDegrees(y);
  EXPECT_EQ(d1(0), 1.0);
  EXPECT_EQ(d1(1), 1.0);
  EXPECT_EQ(d1(2), 1.0);
  // Cross-check against the sparse incidence matrix product.
  Vector d1_mat = SpMv(index.FirstIncidenceMatrix(), y);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(d1(i), d1_mat(i));
}

TEST(IncidenceIndexTest, OneToOneSatisfied) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  EXPECT_TRUE(index.SatisfiesOneToOne(Vector{1.0, 0.0, 0.0, 1.0, 1.0}));
  // Links 0 and 1 share u1=0 -> degree 2 violates the constraint.
  EXPECT_FALSE(index.SatisfiesOneToOne(Vector{1.0, 1.0, 0.0, 0.0, 0.0}));
}

TEST(IncidenceIndexTest, SyncWithCandidatesIndexesAppendedLinks) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex index(pair, c);
  EXPECT_EQ(index.candidate_count(), 5u);

  // Grow the universe and the candidate set, then sync.
  PairDelta delta;
  delta.first.nodes.push_back({NodeType::kUser, 1});
  delta.second.nodes.push_back({NodeType::kUser, 1});
  ASSERT_TRUE(pair.ApplyDelta(delta).ok());
  size_t id_a = c.Add(3, 3);
  size_t id_b = c.Add(0, 3);
  index.SyncWithCandidates(pair.first().NodeCount(NodeType::kUser),
                           pair.second().NodeCount(NodeType::kUser));

  EXPECT_EQ(index.candidate_count(), 7u);
  EXPECT_EQ(index.users_first(), 4u);
  EXPECT_EQ(index.users_second(), 4u);
  ASSERT_EQ(index.LinksOfFirst(3).size(), 1u);
  EXPECT_EQ(index.LinksOfFirst(3)[0], id_a);
  ASSERT_EQ(index.LinksOfSecond(3).size(), 2u);
  EXPECT_EQ(index.LinksOfSecond(3)[0], id_a);
  EXPECT_EQ(index.LinksOfSecond(3)[1], id_b);
  // Existing lists untouched, new links appended to old users' lists.
  std::vector<size_t> of_first0 = index.LinksOfFirst(0);
  ASSERT_EQ(of_first0.size(), 3u);
  EXPECT_EQ(of_first0[2], id_b);
  // Conflicts see the grown lists.
  std::vector<size_t> conflicts = index.ConflictingLinks(id_b);
  EXPECT_TRUE(std::find(conflicts.begin(), conflicts.end(), id_a) !=
              conflicts.end());

  // The counts are all a sync reads: universes grown past any graph the
  // index has seen size the per-user lists (new users start empty), with
  // no pair involved at all.
  size_t id_c = c.Add(5, 0);
  index.SyncWithCandidates(6, 5);
  EXPECT_EQ(index.users_first(), 6u);
  EXPECT_EQ(index.users_second(), 5u);
  EXPECT_TRUE(index.LinksOfFirst(4).empty());
  EXPECT_TRUE(index.LinksOfSecond(4).empty());
  ASSERT_EQ(index.LinksOfFirst(5).size(), 1u);
  EXPECT_EQ(index.LinksOfFirst(5)[0], id_c);
  EXPECT_EQ(index.LinksOfSecond(0).back(), id_c);
  EXPECT_EQ(index.candidate_count(), 8u);
  // Universes only grow.
  EXPECT_DEATH(index.SyncWithCandidates(5, 5), "only grow");
}

TEST(IncidenceIndexTest, ExplicitUniverseConstructorMatchesPairConstructor) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c = MakeCandidates();
  IncidenceIndex from_pair(pair, c);
  IncidenceIndex from_counts(3, 3, c);
  EXPECT_EQ(from_counts.users_first(), from_pair.users_first());
  EXPECT_EQ(from_counts.users_second(), from_pair.users_second());
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(from_counts.LinksOfFirst(u), from_pair.LinksOfFirst(u));
    EXPECT_EQ(from_counts.LinksOfSecond(u), from_pair.LinksOfSecond(u));
  }
}

TEST(IncidenceIndexDeathTest, OutOfRangeEndpointDies) {
  AlignedPair pair = MakePair();
  CandidateLinkSet c;
  c.Add(7, 0);
  EXPECT_DEATH(IncidenceIndex(pair, c), "out of range");
}

}  // namespace
}  // namespace activeiter
