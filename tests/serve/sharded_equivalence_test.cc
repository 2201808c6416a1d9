// The sharding semantics, proven epoch by epoch against a test-local
// reference (tests/serve/plane_reference.h: one DeltaFeatureExtractor +
// one ModelShard applied synchronously, with no routing in between):
//
//   N = 1      ShardedIngestor is BITWISE the unrouted plane + shard
//              composition — same design matrix, scores, labels,
//              weights, link ids and Top-K answers at every epoch.
//   N ∈ {2,4}  every shard is BITWISE an independent plane + shard run
//              over that shard's slice, fed the routed sub-batches (the
//              shared feature engine computes feature state from the graph
//              alone, never from the candidate set), and the router
//              serves the per-shard models under stable global link ids.
//
// Together these pin down exactly what sharding changes (the training
// slice of the PU alternation) and what it must never change (features,
// ids, epochs, the serving order of each slice).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/graph/partition.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"
#include "tests/serve/plane_reference.h"

namespace activeiter {
namespace {

DeltaStream CarvedStream(uint64_t seed) {
  auto full = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 3;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 5.0;
  carve.seed = seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full.value(), carve);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).ValueOrDie();
}

void ExpectSnapshotsBitwiseEqual(const ModelSnapshot& a,
                                 const ModelSnapshot& b,
                                 const std::string& what) {
  EXPECT_EQ(a.epoch, b.epoch) << what;
  ASSERT_EQ(a.links, b.links) << what;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << what;
  for (size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores(i), b.scores(i)) << what << " score " << i;
    EXPECT_EQ(a.y(i), b.y(i)) << what << " label " << i;
  }
  ASSERT_EQ(a.w.size(), b.w.size()) << what;
  for (size_t i = 0; i < a.w.size(); ++i) {
    EXPECT_EQ(a.w(i), b.w(i)) << what << " weight " << i;
  }
}

TEST(ShardedEquivalenceTest, SingleShardIsBitwiseTheUnroutedReference) {
  DeltaStream s = CarvedStream(31);
  DeltaStream s_copy = CarvedStream(31);

  PlaneReference plain(std::move(s.initial), s.train_anchors,
                       std::move(s.initial_candidates));
  const AlignmentService& plain_service = plain.service();
  ASSERT_TRUE(plain.Start().ok());

  ShardedIngestor sharded(std::move(s_copy.initial), s_copy.train_anchors,
                          std::move(s_copy.initial_candidates));
  ASSERT_EQ(sharded.num_shards(), 1u);
  // Before Start the router must refuse, not serve garbage.
  EXPECT_EQ(sharded.backend().epoch(), QueryBackend::kNoEpoch);
  EXPECT_EQ(sharded.backend().TopKFor(0, 3).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sharded.Start().ok());

  const size_t users = plain.pair().first().NodeCount(NodeType::kUser) + 64;
  for (size_t b = 0; b <= s.batches.size(); ++b) {
    // Epoch b: compare the published model bit for bit...
    auto plain_snap = plain_service.snapshot();
    auto shard_snap = sharded.shard_service(0).snapshot();
    ASSERT_NE(plain_snap, nullptr);
    ASSERT_NE(shard_snap, nullptr);
    ExpectSnapshotsBitwiseEqual(*plain_snap, *shard_snap,
                                "epoch " + std::to_string(b));
    EXPECT_EQ(sharded.backend().epoch(), plain_service.epoch());

    // ...and the full query surface, including ids (the coordinator's
    // routed ids must reproduce the reference's sequential numbering).
    for (NodeId u1 = 0; u1 < users; ++u1) {
      auto plain_top = plain_service.TopKFor(u1, 5);
      auto routed_top = sharded.backend().TopKFor(u1, 5);
      ASSERT_TRUE(plain_top.ok());
      ASSERT_TRUE(routed_top.ok());
      ASSERT_EQ(plain_top.value().size(), routed_top.value().size());
      for (size_t i = 0; i < plain_top.value().size(); ++i) {
        const ScoredLink& p = plain_top.value()[i];
        const ScoredLink& r = routed_top.value()[i];
        EXPECT_EQ(p.link_id, r.link_id);
        EXPECT_EQ(p.u1, r.u1);
        EXPECT_EQ(p.u2, r.u2);
        EXPECT_EQ(p.score, r.score);
        EXPECT_EQ(p.matched, r.matched);
      }
    }
    if (b < s.batches.size()) {
      ASSERT_TRUE(plain.ApplyOnce(s.batches[b]).ok());
      ASSERT_TRUE(sharded.ApplyOnce(s_copy.batches[b]).ok());
    }
  }
  EXPECT_EQ(Matrix::MaxAbsDiff(plain.shard().design(),
                               sharded.shard(0).design()),
            0.0);
  // Drain-level stats line up with the reference too.
  EXPECT_EQ(sharded.stats().deltas_applied,
            plain.shard().stats().deltas_applied);
  EXPECT_EQ(sharded.stats().full_factorisations, 1u);
}

class ShardedVsIndependentTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedVsIndependentTest, EveryShardIsBitwiseAnIndependentReference) {
  const size_t n = GetParam();
  DeltaStream s = CarvedStream(47);
  DeltaStream s_copy = CarvedStream(47);

  IngestorOptions options;
  options.partition.num_shards = n;

  // The reference fleet: one fully independent plane + shard per slice,
  // fed the identical routed sub-batches.
  std::vector<CandidateSlice> slices =
      PartitionCandidates(s.initial_candidates, options.partition);
  std::vector<std::unique_ptr<PlaneReference>> reference;
  for (size_t i = 0; i < n; ++i) {
    reference.push_back(std::make_unique<PlaneReference>(
        s.initial, s.train_anchors, std::move(slices[i].links), options,
        std::move(slices[i].global_ids)));
    ASSERT_TRUE(reference.back()->Start().ok());
  }

  ShardedIngestor sharded(std::move(s_copy.initial), s_copy.train_anchors,
                          std::move(s_copy.initial_candidates), options);
  ASSERT_EQ(sharded.num_shards(), n);
  ASSERT_TRUE(sharded.Start().ok());

  size_t next_global_id = s.initial_candidates.size();
  for (size_t b = 0; b <= s.batches.size(); ++b) {
    for (size_t i = 0; i < n; ++i) {
      auto ref_snap = reference[i]->service().snapshot();
      auto shard_snap = sharded.shard_service(i).snapshot();
      ASSERT_NE(ref_snap, nullptr);
      ASSERT_NE(shard_snap, nullptr);
      ExpectSnapshotsBitwiseEqual(
          *ref_snap, *shard_snap,
          "shard " + std::to_string(i) + " epoch " + std::to_string(b));
      EXPECT_EQ(Matrix::MaxAbsDiff(reference[i]->shard().design(),
                                   sharded.shard(i).design()),
                0.0);
      EXPECT_EQ(reference[i]->shard().global_ids(),
                sharded.shard(i).global_ids());
    }

    // The router serves the per-shard models: spot-check that ScorePair
    // lands on the owning shard's numbers and ids are globally stable.
    auto any_snap = sharded.shard_service(0).snapshot();
    if (any_snap->size() > 0) {
      const auto& [u1, u2] = any_snap->links[0];
      auto via_router = sharded.backend().ScorePair(u1, u2);
      auto via_shard = reference[options.partition.ShardOfFirstUser(u1)]
                           ->service()
                           .ScorePair(u1, u2);
      ASSERT_TRUE(via_router.ok());
      ASSERT_TRUE(via_shard.ok());
      EXPECT_EQ(via_router.value().link_id, via_shard.value().link_id);
      EXPECT_EQ(via_router.value().score, via_shard.value().score);
    }

    if (b < s.batches.size()) {
      std::vector<ShardSlice> routed = RouteServeDelta(
          s.batches[b], options.partition, next_global_id);
      next_global_id += s.batches[b].new_candidates.size();
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(
            reference[i]->Apply(s.batches[b].graph, routed[i]).ok());
      }
      ASSERT_TRUE(sharded.ApplyOnce(s_copy.batches[b]).ok());
    }
  }
  // One factorisation per shard, never more.
  EXPECT_EQ(sharded.stats().full_factorisations, n);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedVsIndependentTest,
                         ::testing::Values(2, 4));

TEST(ShardedEquivalenceTest, GlobalIdsAreStableAcrossShardCounts) {
  // The same pair queried at N=1,2,4 must answer with the SAME global
  // link id — the ids are assigned in submission order, not shard order.
  std::vector<std::unique_ptr<ShardedIngestor>> fleets;
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}}) {
    DeltaStream s = CarvedStream(53);
    IngestorOptions options;
    options.partition.num_shards = n;
    fleets.push_back(std::make_unique<ShardedIngestor>(
        std::move(s.initial), s.train_anchors,
        std::move(s.initial_candidates), options));
    ASSERT_TRUE(fleets.back()->Start().ok());
    for (const ServeDelta& batch : s.batches) {
      ASSERT_TRUE(fleets.back()->ApplyOnce(batch).ok());
    }
  }
  auto base = fleets[0]->shard_service(0).snapshot();
  ASSERT_GT(base->size(), 0u);
  size_t compared = 0;
  for (size_t id = 0; id < base->size(); id += 3) {
    const auto& [u1, u2] = base->links[id];
    auto one = fleets[0]->backend().ScorePair(u1, u2);
    auto two = fleets[1]->backend().ScorePair(u1, u2);
    auto four = fleets[2]->backend().ScorePair(u1, u2);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(two.ok());
    ASSERT_TRUE(four.ok());
    EXPECT_EQ(one.value().link_id, two.value().link_id);
    EXPECT_EQ(one.value().link_id, four.value().link_id);
    ++compared;
  }
  EXPECT_GT(compared, 5u);
}

TEST(ShardedEquivalenceTest, BadBatchRejectsUniformlyAcrossShards) {
  DeltaStream s = CarvedStream(59);
  IngestorOptions options;
  options.partition.num_shards = 2;
  ShardedIngestor sharded(std::move(s.initial), s.train_anchors,
                          std::move(s.initial_candidates), options);
  ASSERT_TRUE(sharded.Start().ok());

  ServeDelta bad;
  bad.new_candidates.emplace_back(static_cast<NodeId>(1u << 20), 0);
  EXPECT_EQ(sharded.ApplyOnce(bad).code(), StatusCode::kOutOfRange);
  // Nothing moved anywhere: both shards still serve epoch 0 and a valid
  // batch applies cleanly afterwards.
  EXPECT_EQ(sharded.backend().epoch(), 0u);
  ASSERT_TRUE(sharded.ApplyOnce(s.batches[0]).ok());
  EXPECT_EQ(sharded.backend().epoch(), 1u);
  EXPECT_EQ(sharded.shard_service(0).epoch(), 1u);
  EXPECT_EQ(sharded.shard_service(1).epoch(), 1u);
}

}  // namespace
}  // namespace activeiter
