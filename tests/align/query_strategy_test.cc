#include "src/align/query_strategy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include <gtest/gtest.h>

namespace activeiter {
namespace {

struct Fixture {
  AlignedPair pair;
  CandidateLinkSet candidates;
  std::unique_ptr<IncidenceIndex> index;
  Vector scores;
  Vector y;
  std::vector<Pin> pinned;

  QueryContext Context() const {
    QueryContext ctx;
    ctx.scores = &scores;
    ctx.y = &y;
    ctx.index = index.get();
    ctx.pinned = &pinned;
    return ctx;
  }
};

/// Conflict scenario from the paper's §III-D step (2):
///   link 0 = (0,0) inferred POSITIVE with score 0.62  (l')
///   link 1 = (0,1) inferred NEGATIVE with score 0.60  (l, barely lost)
///   link 2 = (1,1) inferred POSITIVE with score 0.20  (l'', dominated)
///   link 3 = (2,2) inferred NEGATIVE with score 0.10  (uninteresting)
Fixture ConflictFixture() {
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, 3);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, 3);
  Fixture f{AlignedPair(std::move(a), std::move(b)), {}, nullptr,
            {}, {}, {}};
  f.candidates.Add(0, 0);
  f.candidates.Add(0, 1);
  f.candidates.Add(1, 1);
  f.candidates.Add(2, 2);
  f.index = std::make_unique<IncidenceIndex>(f.pair, f.candidates);
  f.scores = Vector{0.62, 0.60, 0.20, 0.10};
  f.y = Vector{1.0, 0.0, 1.0, 0.0};
  f.pinned.assign(4, Pin::kFree);
  return f;
}

TEST(ConflictStrategyTest, FindsBarelyLostFalseNegative) {
  Fixture f = ConflictFixture();
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 5, &rng);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);  // the barely-lost link (0,1)
}

TEST(ConflictStrategyTest, ClosenessThresholdGates) {
  Fixture f = ConflictFixture();
  f.scores(1) = 0.50;  // now far from the winner 0.62
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, DominanceMarginGates) {
  Fixture f = ConflictFixture();
  f.scores(2) = 0.58;  // l'' no longer clearly dominated
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, RequiresPositiveDominatedScore) {
  Fixture f = ConflictFixture();
  f.scores(2) = -0.1;  // ŷ_l'' must be > 0 per the paper
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, SkipsPinnedLinks) {
  Fixture f = ConflictFixture();
  f.pinned[1] = Pin::kNegative;  // already queried
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 5, &rng).empty());
}

TEST(ConflictStrategyTest, RanksByDominanceGap) {
  // Two candidates; the one with the larger ŷ_l − ŷ_l'' gap ranks first.
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, 4);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, 4);
  Fixture f{AlignedPair(std::move(a), std::move(b)), {}, nullptr,
            {}, {}, {}};
  // Cluster A: winner (0,0)=0.62+, loser (0,1)=0.60-, dominated (1,1)=0.3+.
  f.candidates.Add(0, 0);
  f.candidates.Add(0, 1);
  f.candidates.Add(1, 1);
  // Cluster B: winner (2,2)=0.82+, loser (2,3)=0.80-, dominated (3,3)=0.1+.
  f.candidates.Add(2, 2);
  f.candidates.Add(2, 3);
  f.candidates.Add(3, 3);
  f.index = std::make_unique<IncidenceIndex>(f.pair, f.candidates);
  f.scores = Vector{0.62, 0.60, 0.30, 0.82, 0.80, 0.10};
  f.y = Vector{1.0, 0.0, 1.0, 1.0, 0.0, 1.0};
  f.pinned.assign(6, Pin::kFree);

  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 2, &rng);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 4u);  // gap 0.80-0.10 = 0.70 beats 0.60-0.30 = 0.30
  EXPECT_EQ(picks[1], 1u);
}

TEST(ConflictStrategyTest, BatchSizeHonoured) {
  Fixture f = ConflictFixture();
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/false);
  Rng rng(1);
  EXPECT_LE(strategy.SelectQueries(f.Context(), 0, &rng).size(), 0u);
}

TEST(ConflictStrategyTest, NearMissFallbackTopsUpShortBatches) {
  Fixture f = ConflictFixture();
  f.scores(1) = 0.50;  // strict candidate set empty (closeness gate)
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/true);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 2, &rng);
  // Link 1 lost to (0,0) by 0.12 -> a near miss; link 3 has no conflicting
  // positive and is never queried. Exactly one top-up candidate exists.
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);
}

TEST(ConflictStrategyTest, StrictCandidatesRankAheadOfNearMisses) {
  Fixture f = ConflictFixture();
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/true);
  Rng rng(1);
  auto picks = strategy.SelectQueries(f.Context(), 3, &rng);
  ASSERT_GE(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);  // the strict candidate stays first
}

TEST(ConflictStrategyTest, NearMissRequiresConflictingPositive) {
  // A lone negative link with no conflicting positive is never queried.
  Fixture f = ConflictFixture();
  f.y = Vector{0.0, 0.0, 0.0, 0.0};  // nothing inferred positive
  ConflictQueryStrategy strategy(0.05, 0.05, /*fill_with_near_misses=*/true);
  Rng rng(1);
  EXPECT_TRUE(strategy.SelectQueries(f.Context(), 4, &rng).empty());
}

/// Brute-force reference for ConflictQueryStrategy: the strategy's
/// definition written as a loop over IncidenceIndex::ConflictingLinks for
/// every U− link, O(|H|·deg). Returns the whole ranking; a batch of k is its
/// first k entries. Kept here, not in the library, to referee the
/// linear-time SelectQueries.
std::vector<size_t> BruteForceConflictRanking(const QueryContext& ctx,
                                              double closeness,
                                              double dominance,
                                              bool fill_with_near_misses) {
  const Vector& scores = *ctx.scores;
  const Vector& y = *ctx.y;
  const std::vector<Pin>& pinned = *ctx.pinned;
  std::vector<std::pair<size_t, double>> candidates;   // (link, gap)
  std::vector<std::pair<size_t, double>> near_misses;  // (link, distance)
  for (size_t l = 0; l < scores.size(); ++l) {
    if (pinned[l] != Pin::kFree || y(l) > 0.5) continue;  // l ∈ U−
    double score_l = scores(l);
    bool has_close_winner = false;
    double best_gap = -1.0;
    double min_distance = -1.0;
    for (size_t other : ctx.index->ConflictingLinks(l)) {
      if (pinned[other] != Pin::kFree || y(other) < 0.5) continue;  // U+
      double score_o = scores(other);
      double distance = std::abs(score_o - score_l);
      if (min_distance < 0.0 || distance < min_distance) {
        min_distance = distance;
      }
      if (distance <= closeness) has_close_winner = true;
      if (score_o > 0.0 && score_l - score_o >= dominance) {
        best_gap = std::max(best_gap, score_l - score_o);
      }
    }
    if (has_close_winner && best_gap >= 0.0) {
      candidates.emplace_back(l, best_gap);
    } else if (min_distance >= 0.0) {
      near_misses.emplace_back(l, min_distance);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::stable_sort(near_misses.begin(), near_misses.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  std::vector<size_t> out;
  for (const auto& [link, gap] : candidates) out.push_back(link);
  if (fill_with_near_misses) {
    for (const auto& [link, distance] : near_misses) out.push_back(link);
  }
  return out;
}

/// A seeded random instance: random scores (sometimes on a coarse grid, so
/// ties and threshold-boundary distances occur), labels with several
/// positives per user (not one-to-one, some exactly 0.5 so a link is in
/// both U+ and U−), random pins, duplicate pairs and tombstoned links.
Fixture RandomInstance(uint64_t seed) {
  Rng rng(seed);
  bool large = seed % 10 == 0;
  size_t users_first = 1 + rng.UniformInt(large ? 100 : 30);
  size_t users_second = 1 + rng.UniformInt(large ? 100 : 30);
  // At most ~20 links per user on the sparser side keeps the O(|H|·deg)
  // reference cheap.
  size_t links = 1 + rng.UniformInt(std::min<size_t>(
                         large ? 2000 : 200,
                         20 * std::min(users_first, users_second)));
  HeteroNetwork a(NetworkSchema::SocialNetwork(), "n1");
  a.AddNodes(NodeType::kUser, users_first);
  HeteroNetwork b(NetworkSchema::SocialNetwork(), "n2");
  b.AddNodes(NodeType::kUser, users_second);
  Fixture f{AlignedPair(std::move(a), std::move(b)), {}, nullptr,
            {}, {}, {}};
  for (size_t id = 0; id < links; ++id) {
    if (id > 0 && rng.Bernoulli(0.1)) {
      auto [u1, u2] = f.candidates.link(rng.UniformInt(id));
      f.candidates.Add(u1, u2);
    } else {
      f.candidates.Add(static_cast<NodeId>(rng.UniformInt(users_first)),
                       static_cast<NodeId>(rng.UniformInt(users_second)));
    }
  }
  f.index = std::make_unique<IncidenceIndex>(f.pair, f.candidates);
  std::vector<size_t> tombstones;
  for (size_t id = 0; id < links; ++id) {
    if (rng.Bernoulli(0.05)) tombstones.push_back(id);
  }
  for (size_t id : tombstones) EXPECT_TRUE(f.candidates.Remove(id).ok());
  EXPECT_TRUE(f.index->RemoveCandidates(tombstones).ok());

  bool grid = rng.Bernoulli(0.5);
  f.scores = Vector(links);
  f.y = Vector(links);
  f.pinned.assign(links, Pin::kFree);
  for (size_t id = 0; id < links; ++id) {
    double score = 1.2 * rng.UniformDouble() - 0.2;
    f.scores(id) = grid ? std::round(score * 40.0) / 40.0 : score;
    double label = rng.UniformDouble();
    f.y(id) = label < 0.05 ? 0.5 : (label < 0.45 ? 1.0 : 0.0);
    if (rng.Bernoulli(0.1)) {
      f.pinned[id] = rng.Bernoulli(0.5) ? Pin::kPositive : Pin::kNegative;
    }
  }
  return f;
}

TEST(ConflictStrategyTest, MatchesBruteForceReferenceOnRandomInstances) {
  size_t nonempty_strict = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Fixture f = RandomInstance(seed);
    const size_t h = f.scores.size();
    double closeness = seed % 3 == 0 ? 0.1 : 0.05;
    double dominance = seed % 5 == 0 ? 0.2 : 0.05;
    for (bool fill : {false, true}) {
      ConflictQueryStrategy strategy(closeness, dominance, fill);
      std::vector<size_t> ranking =
          BruteForceConflictRanking(f.Context(), closeness, dominance, fill);
      if (!fill && !ranking.empty()) ++nonempty_strict;
      for (size_t k : {size_t{0}, size_t{1}, size_t{5}, h}) {
        Rng rng(seed);
        std::vector<size_t> want(
            ranking.begin(),
            ranking.begin() +
                static_cast<ptrdiff_t>(std::min(k, ranking.size())));
        ASSERT_EQ(strategy.SelectQueries(f.Context(), k, &rng), want)
            << "seed " << seed << " k " << k << " fill " << fill;
      }
    }
  }
  // The instances must exercise the strict candidate set, not just the
  // empty and near-miss paths.
  EXPECT_GT(nonempty_strict, 100u);
}

TEST(RandomStrategyTest, PicksOnlyUnpinned) {
  Fixture f = ConflictFixture();
  f.pinned[0] = Pin::kPositive;
  f.pinned[2] = Pin::kNegative;
  RandomQueryStrategy strategy;
  Rng rng(2);
  auto picks = strategy.SelectQueries(f.Context(), 10, &rng);
  std::set<size_t> got(picks.begin(), picks.end());
  EXPECT_EQ(got, (std::set<size_t>{1, 3}));
}

TEST(RandomStrategyTest, RespectsK) {
  Fixture f = ConflictFixture();
  RandomQueryStrategy strategy;
  Rng rng(3);
  EXPECT_EQ(strategy.SelectQueries(f.Context(), 2, &rng).size(), 2u);
}

TEST(RandomStrategyTest, DeterministicGivenRng) {
  Fixture f = ConflictFixture();
  RandomQueryStrategy strategy;
  Rng rng1(7), rng2(7);
  EXPECT_EQ(strategy.SelectQueries(f.Context(), 2, &rng1),
            strategy.SelectQueries(f.Context(), 2, &rng2));
}

TEST(UncertaintyStrategyTest, PicksNearThreshold) {
  Fixture f = ConflictFixture();
  UncertaintyQueryStrategy strategy(0.5);
  Rng rng(4);
  auto picks = strategy.SelectQueries(f.Context(), 1, &rng);
  ASSERT_EQ(picks.size(), 1u);
  // Scores: 0.62, 0.60, 0.20, 0.10 -> closest to 0.5 is link 1 (0.60).
  EXPECT_EQ(picks[0], 1u);
}

TEST(StrategyNamesAreStable, Names) {
  EXPECT_STREQ(ConflictQueryStrategy().name(), "conflict");
  EXPECT_STREQ(RandomQueryStrategy().name(), "random");
  EXPECT_STREQ(UncertaintyQueryStrategy().name(), "uncertainty");
}

}  // namespace
}  // namespace activeiter
