// The shrink path's correctness anchor: a grow→shrink→grow stream is
// equivalent to rebuilding everything from scratch at every epoch —
//
//   * the design matrix X stays BITWISE identical to a fresh
//     FeatureExtractor over the mutated pair (removed rows physically
//     compact, so no churn residue survives in X),
//   * scores/weights agree with a freshly factored session up to the
//     documented rank-k rounding (the Gram's += then −= is one rounding
//     step away from a no-op), and the label vector is identical,
//   * the whole stream performs exactly ONE full factorisation — the
//     epoch-0 Prepare — with every removal absorbed through the blocked
//     rank-k DOWNDATE path, proven via the factor/downdate counters.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/align/iter_aligner.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/linalg/cholesky.h"
#include "src/metadiagram/features.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"
#include "tests/serve/plane_reference.h"

namespace activeiter {
namespace {

AlignedPair TinyPair(uint64_t seed = 7) {
  auto pair = AlignedNetworkGenerator(TinyPreset(seed)).Generate();
  EXPECT_TRUE(pair.ok());
  return std::move(pair).ValueOrDie();
}

DeltaStream ChurnStream(uint64_t seed, double churn_fraction) {
  AlignedPair full = TinyPair(seed);
  DeltaStreamOptions carve;
  carve.num_batches = 3;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 5.0;
  carve.churn_fraction = churn_fraction;
  carve.seed = seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full, carve);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).ValueOrDie();
}

/// Batch rebuild of the full pipeline over a single-shard ingestor's
/// current state; `train_anchors` is the stream's fixed bridge L+.
struct BatchRebuild {
  Matrix x;
  AlignmentResult result;

  BatchRebuild(const ShardedIngestor& ingestor,
               const std::vector<AnchorLink>& train_anchors, double c) {
    const CandidateLinkSet& candidates = ingestor.shard(0).candidates();
    FeatureExtractor extractor(ingestor.pair(), train_anchors);
    x = extractor.Extract(candidates);
    IncidenceIndex index(ingestor.pair(), candidates);
    auto session = AlignmentSession::Create(x, index, c);
    EXPECT_TRUE(session.ok());
    std::vector<Pin> pins(candidates.size(), Pin::kFree);
    for (const AnchorLink& a : train_anchors) {
      for (size_t id = 0; id < candidates.size(); ++id) {
        const auto& [u1, u2] = candidates.link(id);
        if (u1 == a.u1 && u2 == a.u2) pins[id] = Pin::kPositive;
      }
    }
    session.value().ResetPins(pins);
    IterAligner aligner;
    auto aligned = aligner.Align(session.value());
    EXPECT_TRUE(aligned.ok());
    result = std::move(aligned).ValueOrDie();
  }
};

TEST(ChurnEquivalenceTest, GrowShrinkGrowMatchesBatchRebuildEveryEpoch) {
  DeltaStream s = ChurnStream(7, 0.3);
  // Churn mode interleaves shrink batches and a final re-add batch.
  ASSERT_GT(s.batches.size(), 3u);
  size_t stream_removals = 0;
  for (const ServeDelta& b : s.batches) {
    stream_removals += b.removed_candidates.size();
  }
  ASSERT_GT(stream_removals, 0u);

  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates));
  const AlignmentService& service = ingestor.shard_service(0);
  ASSERT_TRUE(ingestor.Start().ok());
  EXPECT_EQ(ingestor.stats().full_factorisations, 1u);

  const uint64_t downdates_start =
      CholeskyFactor::TotalRankOneDowndateCount();
  for (size_t b = 0; b < s.batches.size(); ++b) {
    const uint64_t factors_before = CholeskyFactor::TotalFactorCount();
    ASSERT_TRUE(ingestor.ApplyOnce(s.batches[b]).ok()) << "batch " << b;
    // Well-conditioned churn never refactors — every shrink epoch goes
    // through the blocked rank-k downdate.
    EXPECT_EQ(CholeskyFactor::TotalFactorCount(), factors_before)
        << "batch " << b;

    auto snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->epoch, b + 1);
    ASSERT_EQ(snap->size(), ingestor.shard(0).candidates().size());

    // 1. X is bitwise identical to a from-scratch extraction.
    const Matrix& design = ingestor.shard(0).design();
    BatchRebuild rebuild(ingestor, s.train_anchors, 1.0);
    ASSERT_EQ(rebuild.x.rows(), design.rows());
    EXPECT_EQ(Matrix::MaxAbsDiff(rebuild.x, design), 0.0)
        << "epoch " << b + 1;

    // 2. Scores agree up to update/downdate rounding; labels exactly.
    ASSERT_EQ(rebuild.result.scores.size(), snap->scores.size());
    EXPECT_LT((rebuild.result.scores - snap->scores).NormInf(), 1e-8)
        << "epoch " << b + 1;
    EXPECT_LT((rebuild.result.w - snap->w).NormInf(), 1e-8);
    for (size_t i = 0; i < snap->size(); ++i) {
      EXPECT_EQ(rebuild.result.y(i), snap->y(i))
          << "epoch " << b + 1 << " link " << i;
    }
  }

  // The downdate path genuinely ran, and never fell back to a refactor.
  EXPECT_GE(CholeskyFactor::TotalRankOneDowndateCount() - downdates_start,
            stream_removals);
  IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.epochs_published, s.batches.size() + 1);
  EXPECT_EQ(stats.full_factorisations, 1u);
  EXPECT_EQ(stats.rows_removed, stream_removals);
  EXPECT_GT(stats.rows_appended, stats.rows_removed);
}

TEST(ChurnEquivalenceTest, SingleShardShardedChurnBitwiseEqualsPlaneReference) {
  DeltaStream s = ChurnStream(9, 0.25);
  DeltaStream s_copy = ChurnStream(9, 0.25);
  size_t stream_removals = 0;
  for (const ServeDelta& b : s.batches) {
    stream_removals += b.removed_candidates.size();
  }
  ASSERT_GT(stream_removals, 0u);

  PlaneReference plain(std::move(s.initial), s.train_anchors,
                       std::move(s.initial_candidates));
  ASSERT_TRUE(plain.Start().ok());

  IngestorOptions options;  // one shard
  ShardedIngestor sharded(std::move(s_copy.initial), s_copy.train_anchors,
                          std::move(s_copy.initial_candidates), options);
  ASSERT_TRUE(sharded.Start().ok());

  for (size_t b = 0; b < s.batches.size(); ++b) {
    ASSERT_TRUE(plain.ApplyOnce(s.batches[b]).ok()) << "batch " << b;
    ASSERT_TRUE(sharded.ApplyOnce(s_copy.batches[b]).ok()) << "batch " << b;
  }

  // Removal routing through the shard layer changes nothing: the one
  // shard's model is bit-for-bit the plane + shard composition fed the
  // unrouted batches.
  ASSERT_EQ(sharded.shard(0).candidates().size(),
            plain.shard().candidates().size());
  EXPECT_EQ(Matrix::MaxAbsDiff(sharded.shard(0).design(),
                               plain.shard().design()),
            0.0);
  auto snap = plain.service().snapshot();
  auto sharded_snap = sharded.shard_service(0).snapshot();
  ASSERT_EQ(snap->size(), sharded_snap->size());
  for (size_t i = 0; i < snap->size(); ++i) {
    EXPECT_EQ(snap->scores(i), sharded_snap->scores(i));
    EXPECT_EQ(snap->y(i), sharded_snap->y(i));
  }
  EXPECT_EQ(sharded.stats().rows_removed, stream_removals);
}

TEST(ChurnEquivalenceTest, MultiShardChurnRoutesRemovalsToOwningShard) {
  DeltaStream s = ChurnStream(13, 0.25);
  size_t stream_removals = 0;
  for (const ServeDelta& b : s.batches) {
    stream_removals += b.removed_candidates.size();
  }
  ASSERT_GT(stream_removals, 0u);

  IngestorOptions options;
  options.partition.num_shards = 2;
  ShardedIngestor sharded(std::move(s.initial), s.train_anchors,
                          std::move(s.initial_candidates), options);
  ASSERT_TRUE(sharded.Start().ok());
  for (const ServeDelta& batch : s.batches) {
    ASSERT_TRUE(sharded.ApplyOnce(batch).ok());
  }
  // Every removal found its owning shard; none were double-applied.
  EXPECT_EQ(sharded.stats().rows_removed, stream_removals);
  EXPECT_EQ(sharded.stats().full_factorisations, 2u);
  EXPECT_EQ(sharded.shard_stats(0).rows_removed +
                sharded.shard_stats(1).rows_removed,
            stream_removals);
}

/// Everything a rejected batch must leave as it was: the graph's size and
/// every shard's epoch and design matrix.
struct WriteSideState {
  size_t nodes = 0;
  size_t edges = 0;
  std::vector<uint64_t> epochs;
  std::vector<Matrix> designs;

  explicit WriteSideState(const ShardedIngestor& ingestor)
      : nodes(ingestor.pair().first().TotalNodeCount() +
              ingestor.pair().second().TotalNodeCount()),
        edges(ingestor.pair().first().TotalEdgeCount() +
              ingestor.pair().second().TotalEdgeCount()) {
    for (size_t i = 0; i < ingestor.num_shards(); ++i) {
      epochs.push_back(ingestor.shard(i).epoch());
      designs.push_back(ingestor.shard(i).design());
    }
  }

  void ExpectUnchangedIn(const ShardedIngestor& ingestor) const {
    const WriteSideState now(ingestor);
    EXPECT_EQ(now.nodes, nodes);
    EXPECT_EQ(now.edges, edges);
    ASSERT_EQ(now.epochs, epochs);
    for (size_t i = 0; i < designs.size(); ++i) {
      ASSERT_EQ(now.designs[i].rows(), designs[i].rows()) << "shard " << i;
      EXPECT_EQ(Matrix::MaxAbsDiff(now.designs[i], designs[i]), 0.0)
          << "shard " << i;
    }
  }
};

/// Every shard's X against a fresh extraction over the current pair.
void ExpectDesignsMatchFreshExtraction(
    const ShardedIngestor& ingestor,
    const std::vector<AnchorLink>& train_anchors) {
  FeatureExtractor fresh(ingestor.pair(), train_anchors);
  for (size_t i = 0; i < ingestor.num_shards(); ++i) {
    const Matrix x = fresh.Extract(ingestor.shard(i).candidates());
    ASSERT_EQ(x.rows(), ingestor.shard(i).design().rows()) << "shard " << i;
    EXPECT_EQ(Matrix::MaxAbsDiff(x, ingestor.shard(i).design()), 0.0)
        << "shard " << i;
  }
}

TEST(ChurnEquivalenceTest, RemovingUnknownCandidateRejectsWithoutMutating) {
  {
    DeltaStream s = ChurnStream(17, 0.0);
    ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                             std::move(s.initial_candidates));
    const AlignmentService& service = ingestor.shard_service(0);
    ASSERT_TRUE(ingestor.Start().ok());
    const size_t rows_before = ingestor.shard(0).design().rows();

    ServeDelta bad;
    bad.removed_candidates.emplace_back(NodeId{0}, NodeId{4000000});
    EXPECT_EQ(ingestor.ApplyOnce(bad).code(), StatusCode::kNotFound);
    EXPECT_EQ(ingestor.shard(0).design().rows(), rows_before);
    EXPECT_EQ(ingestor.stats().rows_removed, 0u);
    EXPECT_EQ(service.epoch(), 0u);

    // Serving continues: a valid batch still applies afterwards.
    ASSERT_TRUE(ingestor.ApplyOnce(s.batches[0]).ok());
    EXPECT_EQ(service.epoch(), 1u);
  }

  // The bad removal rides on a batch that also changes the graph. It must
  // be rejected before the graph moves; otherwise the drain's dirty
  // columns are lost and the next epoch serves stale rows in X.
  for (size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    DeltaStream s = ChurnStream(7, 0.0);
    ASSERT_GE(s.batches.size(), 2u);
    ASSERT_FALSE(s.batches[0].graph.empty());
    IngestorOptions options;
    options.partition.num_shards = shards;
    ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                             std::move(s.initial_candidates), options);
    ASSERT_TRUE(ingestor.Start().ok());

    ServeDelta bad;
    bad.graph = s.batches[0].graph;
    bad.removed_candidates.emplace_back(NodeId{0}, NodeId{4000000});
    const WriteSideState before(ingestor);
    EXPECT_EQ(ingestor.ApplyOnce(bad).code(), StatusCode::kNotFound);
    before.ExpectUnchangedIn(ingestor);

    // A batch naming one served pair twice is rejected the same way.
    ServeDelta twice;
    twice.graph = s.batches[0].graph;
    const auto served = ingestor.shard(0).candidates().link(0);
    twice.removed_candidates = {served, served};
    EXPECT_EQ(ingestor.ApplyOnce(twice).code(),
              StatusCode::kInvalidArgument);
    before.ExpectUnchangedIn(ingestor);

    for (size_t b = 0; b < 2; ++b) {
      ASSERT_TRUE(ingestor.ApplyOnce(s.batches[b]).ok()) << "batch " << b;
      ExpectDesignsMatchFreshExtraction(ingestor, s.train_anchors);
    }
  }

  // The same bad batch through the background coordinator: a sticky
  // NotFound, and no shard epoch advanced.
  {
    DeltaStream s = ChurnStream(7, 0.0);
    IngestorOptions options;
    options.partition.num_shards = 2;
    ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                             std::move(s.initial_candidates), options);
    ASSERT_TRUE(ingestor.Start().ok());
    const WriteSideState before(ingestor);

    ServeDelta bad;
    bad.graph = s.batches[0].graph;
    bad.removed_candidates.emplace_back(NodeId{0}, NodeId{4000000});
    ingestor.StartBackground();
    ingestor.Submit(std::move(bad));
    ingestor.Flush();
    EXPECT_EQ(ingestor.background_status().code(), StatusCode::kNotFound);
    // Sticky: a valid batch submitted after the error is discarded.
    ingestor.Submit(s.batches[0]);
    ingestor.Flush();
    ingestor.Stop();
    EXPECT_EQ(ingestor.background_status().code(), StatusCode::kNotFound);
    before.ExpectUnchangedIn(ingestor);
  }
}

}  // namespace
}  // namespace activeiter
