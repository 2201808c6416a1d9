// Tests of the benchmark's own rules: percentiles and the sample-count
// rule, the monotone-visibility freshness rule, input-row counting, and
// the trace read-back.

#include <gtest/gtest.h>

#include "bench_stats.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/serve/delta_stream.h"
#include "trace_report.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_EQ(Percentile(v, 0.2), 1.0);
  EXPECT_EQ(Percentile(v, 0.21), 2.0);
  EXPECT_EQ(Percentile(v, 0.99), 5.0);
  EXPECT_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.0);  // lower median
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, SampleCountRuleNeedsTenBeyond) {
  EXPECT_EQ(TailCount(100, 0.9), 10u);
  EXPECT_TRUE(PercentileResolved(100, 0.9));
  EXPECT_FALSE(PercentileResolved(99, 0.9));
  EXPECT_FALSE(PercentileResolved(999, 0.99));
  EXPECT_TRUE(PercentileResolved(1000, 0.99));
  EXPECT_TRUE(PercentileResolved(20, 0.5));
  EXPECT_FALSE(PercentileResolved(19, 0.5));
  EXPECT_EQ(TailCount(0, 0.5), 0u);
}

TEST(NsHistogramTest, NearestRankIncludingOverflow) {
  NsHistogram h;
  for (int64_t ns : {300, 100, 200, 400, 100000}) h.Record(ns);
  EXPECT_EQ(h.count(), 5u);
  // A lone sample of bucket i reads mid-bucket.
  EXPECT_EQ(h.PercentileNs(0.5), 300.5);
  EXPECT_EQ(h.PercentileNs(0.8), 400.5);
  EXPECT_EQ(h.PercentileNs(1.0), 100000.0);  // exact, from the overflow list
  EXPECT_EQ(h.PercentileNs(0.0), 100.5);
}

TEST(NsHistogramTest, RankAmongTiedSamplesSpreadsOverTheBucket) {
  NsHistogram h;
  for (int64_t ns : {142, 142, 143, 143, 143, 143, 144, 144}) h.Record(ns);
  // Rank 4 is the second of four samples in bucket 143.
  EXPECT_DOUBLE_EQ(h.PercentileNs(0.5), 143.0 + 1.5 / 4.0);
  // Rank 3 is the first of them.
  EXPECT_DOUBLE_EQ(h.PercentileNs(0.375), 143.0 + 0.5 / 4.0);
}

TEST(VisibilityTimelineTest, LaterSightingTimesEarlierBatches) {
  // Batches due at 0, 1, 2, 3 s. Batch 1 is a removal that was re-added
  // before any reader saw it missing: its own probe never registers, so
  // only the sighting of batch 2 can time it.
  VisibilityTimeline t({0.0, 1.0, 2.0, 3.0});
  t.MarkSeen(0, 0.25);
  t.MarkSeen(2, 2.5);
  t.MarkSeen(1, 2.75);  // stale: already covered, must not move anything
  EXPECT_EQ(t.next_unseen(), 3u);
  EXPECT_EQ(t.visible_at(1), 2.5);
  EXPECT_EQ(t.visible_at(2), 2.5);
  size_t timeouts = 0;
  std::vector<double> fresh = t.Freshness(5.0, &timeouts);
  // Batch 3 was never seen: a timeout, never a hang or a made-up value.
  EXPECT_EQ(timeouts, 1u);
  ASSERT_EQ(fresh.size(), 3u);
  EXPECT_DOUBLE_EQ(fresh[0], 0.25);
  EXPECT_DOUBLE_EQ(fresh[1], 1.5);
  EXPECT_DOUBLE_EQ(fresh[2], 0.5);
}

TEST(VisibilityTimelineTest, LateSightingCountsAsTimeout) {
  VisibilityTimeline t({0.0, 1.0});
  t.MarkSeen(1, 7.0);
  size_t timeouts = 0;
  std::vector<double> fresh = t.Freshness(6.5, &timeouts);
  EXPECT_EQ(timeouts, 1u);  // batch 0: 7 s after its schedule
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_DOUBLE_EQ(fresh[0], 6.0);
}

TEST(InputRowsTest, CountsStreamedCandidatesNotRemovalsOrInitialRows) {
  auto pair = activeiter::AlignedNetworkGenerator(activeiter::TinyPreset(3))
                  .Generate();
  ASSERT_TRUE(pair.ok());
  auto carved = activeiter::CarveDeltaStream(pair.value(), {});
  ASSERT_TRUE(carved.ok());
  activeiter::DeltaStream& s = carved.value();
  ASSERT_GT(s.initial_candidates.size(), 0u);  // not streamed input
  activeiter::ServeDelta grow;
  grow.new_candidates = {{1, 1}, {2, 2}, {3, 3}};
  activeiter::ServeDelta shrink;
  shrink.removed_candidates = {{1, 1}};
  activeiter::ServeDelta readd;
  readd.new_candidates = {{1, 1}};
  s.batches = {grow, shrink, readd};
  EXPECT_EQ(s.StreamedCandidateCount(), 4u);
  EXPECT_DOUBLE_EQ(RowsPerSecond(s.StreamedCandidateCount(), 2.0), 2.0);
  EXPECT_EQ(RowsPerSecond(4, 0.0), 0.0);
}

TEST(UlpsTest, MeasuredAtTheVectorScale) {
  EXPECT_EQ(UlpsAtScale(1.0, 1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(UlpsAtScale(1.0, std::nextafter(1.0, 2.0), 1.0), 1.0);
  // Near zero the distance is still judged against the vector's scale.
  EXPECT_DOUBLE_EQ(UlpsAtScale(0.0, 0x1p-52, 1.0), 1.0);
  EXPECT_FALSE(SameBits(0.0, -0.0));
}

TEST(TraceReportTest, ParsesTracerJsonAndMeasuresDrainCoverage) {
  const std::string json =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "  {\"name\": \"ingest.drain_coalesce\", \"cat\": \"activeiter\", "
      "\"ph\": \"X\", \"ts\": 0.000, \"dur\": 1.000, \"pid\": 1, \"tid\": 1},\n"
      "  {\"name\": \"ingest.pipeline.prepare\", \"cat\": \"activeiter\", "
      "\"ph\": \"X\", \"ts\": 1.000, \"dur\": 4.000, \"pid\": 1, \"tid\": 1},\n"
      "  {\"name\": \"ingest.plane_refresh\", \"cat\": \"activeiter\", "
      "\"ph\": \"X\", \"ts\": 2.000, \"dur\": 2.500, \"pid\": 1, \"tid\": 1},\n"
      "  {\"name\": \"ingest.apply_slice\", \"cat\": \"activeiter\", "
      "\"ph\": \"X\", \"ts\": 6.000, \"dur\": 3.000, \"pid\": 1, \"tid\": 2},\n"
      "  {\"name\": \"ingest.apply_slice\", \"cat\": \"activeiter\", "
      "\"ph\": \"X\", \"ts\": 5.000, \"dur\": 5.000, \"pid\": 1, \"tid\": 3}\n"
      "]}\n";
  const std::vector<SpanEvent> events = ParseTraceJson(json);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[2].name, "ingest.plane_refresh");
  EXPECT_EQ(DurationsUs(events, "ingest.plane_refresh"),
            std::vector<double>{2.5});
  EXPECT_EQ(DurationsOnThreadsUs(events, "ingest.apply_slice",
                                 "ingest.pipeline.prepare")
                .size(),
            0u);
  // Wall 0 → 10 µs; critical path coalesce 1 + prepare 4 + the slice that
  // finished last (tid 3, 5 µs) = 10 µs, fully covered.
  const std::vector<double> coverage = DrainCoverage(events);
  ASSERT_EQ(coverage.size(), 1u);
  EXPECT_DOUBLE_EQ(coverage[0], 1.0);
}

}  // namespace
}  // namespace perfbench
