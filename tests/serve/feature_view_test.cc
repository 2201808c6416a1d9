// The one lifetime invariant the ingest pipeline rests on: a FeatureView
// taken after drain N reads drain N's features BITWISE, however far the
// feature engine moves on. The coordinator applies and refreshes drain
// N+1 (and N+2) on the same DeltaFeatureExtractor while shard executors
// still read drain N's view, so a view must never observe a later Apply
// or Refresh — including a shrinking drain that removes edges — and must
// outlive the engine itself. A reader thread races the later drains so
// TSan (the serve_ CI regex) sees the exact hand-off the executors rely
// on.

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/metadiagram/delta_features.h"
#include "src/metadiagram/features.h"
#include "src/serve/delta_stream.h"

namespace activeiter {
namespace {

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Everything a shard reads through a view, recorded once.
struct ViewReadout {
  size_t dimension = 0;
  size_t users_first = 0;
  size_t users_second = 0;
  std::vector<Vector> columns;  // one per feature column, bias included
  std::vector<Vector> rows;     // RowFor of every candidate

  ViewReadout(const FeatureView& view, const CandidateLinkSet& candidates)
      : dimension(view.dimension()),
        users_first(view.users_first()),
        users_second(view.users_second()) {
    for (size_t k = 0; k < dimension; ++k) {
      columns.push_back(view.Column(k, candidates));
    }
    for (const auto& [u1, u2] : candidates.links()) {
      rows.push_back(view.RowFor(u1, u2));
    }
  }

  /// Number of reads that differ from `other` (0 = bitwise identical).
  size_t Mismatches(const ViewReadout& other) const {
    size_t mismatches = 0;
    if (dimension != other.dimension || users_first != other.users_first ||
        users_second != other.users_second) {
      ++mismatches;
    }
    for (size_t k = 0; k < columns.size() && k < other.columns.size(); ++k) {
      if (!SameBits(columns[k], other.columns[k])) ++mismatches;
    }
    for (size_t i = 0; i < rows.size() && i < other.rows.size(); ++i) {
      if (!SameBits(rows[i], other.rows[i])) ++mismatches;
    }
    return mismatches;
  }
};

TEST(FeatureViewTest, ViewIsBitwiseStableAcrossLaterDrainsAndTheEngine) {
  auto full = AlignedNetworkGenerator(TinyPreset(43)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaStreamOptions carve;
  carve.num_batches = 2;
  carve.initial_fraction = 0.4;
  carve.np_ratio = 4.0;
  carve.churn_fraction = 0.4;
  carve.seed = 43 ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(full.value(), carve);
  ASSERT_TRUE(stream.ok());
  DeltaStream& s = stream.value();
  // grow, shrink (the first wave's churn), grow, ...
  ASSERT_GE(s.batches.size(), 3u);
  const PairDelta& shrink = s.batches[1].graph;
  ASSERT_GT(shrink.first.removed_edges.size() +
                shrink.second.removed_edges.size(),
            0u);

  auto engine =
      std::make_unique<DeltaFeatureExtractor>(s.initial, s.train_anchors);
  engine->Refresh();
  // Drain N = the first growth batch.
  CandidateLinkSet candidates = s.initial_candidates;
  ASSERT_TRUE(engine->Apply(s.batches[0].graph).ok());
  engine->Refresh();
  for (const auto& [u1, u2] : s.batches[0].new_candidates) {
    candidates.Add(u1, u2);
  }
  const FeatureView view = engine->View();
  const ViewReadout at_n(view, candidates);

  // The view IS drain N's features: bitwise a fresh extraction over the
  // graph as it stood.
  FeatureExtractor fresh(engine->pair(), s.train_anchors);
  EXPECT_EQ(Matrix::MaxAbsDiff(view.Extract(candidates),
                               fresh.Extract(candidates)),
            0.0);

  // A reader keeps re-reading the view while the engine applies and
  // refreshes drains N+1 (shrinking) and N+2 (growing) — the executor's
  // side of the pipeline hand-off.
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> reader_mismatches{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire) || reads.load() == 0) {
      reader_mismatches.fetch_add(
          ViewReadout(view, candidates).Mismatches(at_n),
          std::memory_order_relaxed);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t b = 1; b <= 2; ++b) {
    // Non-fatal: the reader thread must still be joined below.
    const Status applied = engine->Apply(s.batches[b].graph);
    EXPECT_TRUE(applied.ok()) << "drain " << b;
    if (!applied.ok()) break;
    const std::vector<size_t> dirty = engine->Refresh();
    EXPECT_FALSE(dirty.empty()) << "drain " << b;
    // The engine really moved on: its current view disagrees with drain
    // N's somewhere, so the stability below is not vacuous.
    EXPECT_GT(ViewReadout(engine->View(), candidates).Mismatches(at_n), 0u)
        << "drain " << b;
    EXPECT_EQ(ViewReadout(view, candidates).Mismatches(at_n), 0u)
        << "drain " << b;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(reader_mismatches.load(), 0u);

  // The view outlives the engine that produced it.
  engine.reset();
  EXPECT_EQ(ViewReadout(view, candidates).Mismatches(at_n), 0u);
}

TEST(FeatureViewTest, ViewRequiresARefreshedEngine) {
  auto full = AlignedNetworkGenerator(TinyPreset(47)).Generate();
  ASSERT_TRUE(full.ok());
  DeltaFeatureExtractor engine(std::move(full).ValueOrDie(), {});
  EXPECT_DEATH((void)engine.View(), "Refresh");
  engine.Refresh();
  EXPECT_GT(engine.View().dimension(), 1u);
}

}  // namespace
}  // namespace activeiter
