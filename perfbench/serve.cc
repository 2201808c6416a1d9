// The two serve-layer workloads.
//
// serve-steady — open loop. A bench-scale grow→shrink→grow stream
// (np-ratio 40, churn 0.3) is submitted at a fixed batch rate to one shard
// at pipeline depth 1, while one closed-loop reader issues TopKFor to
// random users and probes which batches its answers already reflect.
//
// serve-burst — closed loop. A large-scale growth-only stream goes to two
// shards with a two-thread kernel pool, in bursts: kBurst batches are
// submitted at once, then Flush, then the next burst. No reader runs while
// a burst is in flight; between bursts the benchmark checks the burst is
// visible and times a short quiescent TopKFor phase.
//
// Both feed the ingestor only through CarveDeltaStream output and
// ShardedIngestor::Start/Submit/Flush/Stop, and read only through the
// QueryBackend. After the clock stops, each run's final per-shard state is
// compared with a synchronous ApplyOnce reference over the same stream:
// design matrix bitwise, labels exactly, scores within kScoreUlpBound.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <malloc.h>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "bench_stats.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/datagen/aligned_generator.h"
#include "src/datagen/presets.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"
#include "trace_report.h"
#include "workloads.h"

namespace perfbench {
namespace {

using activeiter::AlignedPair;
using activeiter::IngestorOptions;
using activeiter::IngestStats;
using activeiter::MetricsRegistry;
using activeiter::NodeId;
using activeiter::ObsSinks;
using activeiter::QueryBackend;
using activeiter::ServeDelta;
using activeiter::ShardedIngestor;
using activeiter::ThreadPool;
using activeiter::Tracer;
using Clock = std::chrono::steady_clock;

constexpr size_t kTopK = 10;
/// Set-ups timed on their own after the measured phase, on top of those
/// the passes use, so every run takes its set-up median over at least
/// kSetupOnly + 3 samples.
constexpr size_t kSetupOnly = 4;
/// A batch not visible this long after its schedule counts as failed.
constexpr double kVisibilityTimeoutS = 5.0;
/// Live-versus-reference score tolerance, in ulps of the shard's largest
/// score. The live run and the reference absorb the same rows in
/// different drain groupings, so the factor sees a different sequence of
/// rank-1 updates; everything else must match exactly.
constexpr double kScoreUlpBound = 1 << 20;

/// serve-steady replays one stream per kStreamSeconds of the run, each
/// from its own generated pair, back to back at kSteadyRate batches per
/// second; each is carved into 2·waves + 1 ≈ rate · kStreamSeconds
/// batches. Pooling pairs keeps a run's medians from hinging on one pair.
constexpr double kSteadyRate = 6.0;
constexpr double kStreamSeconds = 2.5;
/// Batches per burst and bursts per round of serve-burst.
constexpr size_t kBurst = 8;
constexpr size_t kBurstsPerRound = 24;
/// TopKFor calls timed after each burst.
constexpr size_t kBurstQueries = 2000;

struct Shape {
  bool large = false;
  double np_ratio = 40.0;
  double churn = 0.0;
  size_t growth_batches = 16;
  size_t shards = 1;
  size_t pool_threads = 0;  // 0 = serial feature plane
};

Shape SteadyShape() {
  Shape s;
  s.np_ratio = 40.0;
  s.churn = 0.3;
  s.growth_batches =
      static_cast<size_t>((kSteadyRate * kStreamSeconds - 1.0) / 2.0);
  return s;
}

Shape BurstShape() {
  Shape s;
  s.large = true;
  s.np_ratio = 10.0;
  s.growth_batches = kBurst * kBurstsPerRound;
  s.shards = 2;
  s.pool_threads = 2;
  return s;
}

uint64_t PairKey(NodeId u1, NodeId u2) {
  return (static_cast<uint64_t>(u1) << 32) | u2;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

activeiter::GeneratorConfig PairConfig(const Shape& shape, uint64_t seed) {
  activeiter::GeneratorConfig cfg = activeiter::FoursquareTwitterPreset(seed);
  if (shape.large) {
    cfg.shared_users = 800;
    cfg.first.extra_users = 160;
    cfg.second.extra_users = 280;
  }
  return cfg;
}

activeiter::Result<activeiter::DeltaStream> Carve(const AlignedPair& full,
                                                  const Shape& shape,
                                                  uint64_t seed) {
  activeiter::DeltaStreamOptions carve;
  carve.num_batches = shape.growth_batches;
  carve.initial_fraction = 0.5;
  carve.np_ratio = shape.np_ratio;
  carve.train_fraction = 0.3;
  carve.churn_fraction = shape.churn;
  carve.seed = seed ^ 0x5EEDULL;
  return activeiter::CarveDeltaStream(full, carve);
}

IngestorOptions Options(const Shape& shape, ThreadPool* pool, ObsSinks obs) {
  IngestorOptions o;
  o.serve.features.pool = pool;
  o.drain = activeiter::DrainPolicy::kCoalesce;
  o.partition.num_shards = shape.shards;
  o.pipeline_depth = 1;
  o.obs = obs;
  return o;
}

/// How a reader recognises that a batch is applied.
struct Probe {
  enum Kind {
    kNone,     // the batch changes no candidate
    kFresh,    // adds a pair never served before and never removed later:
               // present ⇔ applied, whenever it is looked at
    kRemoved,  // withdraws a served pair: absent ⇒ applied, but only once
               // every earlier batch is known applied
    kReadded,  // re-adds a withdrawn pair: present ⇒ applied, under the
               // same condition
  };
  Kind kind = kNone;
  NodeId u1 = 0;
  NodeId u2 = 0;
};

/// One set-up: the generated pair, its carved stream, the ground truth
/// and a started ingestor.
struct Live {
  uint64_t seed = 0;  // of the generated pair and its carve
  std::unique_ptr<AlignedPair> full;
  std::vector<ServeDelta> batches;
  std::vector<Probe> probes;
  std::vector<std::pair<NodeId, NodeId>> served_pairs;  // deduplicated
  std::unordered_set<uint64_t> anchors;
  size_t input_rows = 0;
  size_t users_first = 0;
  double generate_s = 0.0;
  double setup_s = 0.0;
  std::unique_ptr<ShardedIngestor> ingestor;
};

std::vector<Probe> MakeProbes(const activeiter::DeltaStream& s) {
  std::unordered_set<uint64_t> ever_removed;
  for (const ServeDelta& b : s.batches) {
    for (const auto& [u1, u2] : b.removed_candidates) {
      ever_removed.insert(PairKey(u1, u2));
    }
  }
  std::unordered_set<uint64_t> ever;
  for (const auto& [u1, u2] : s.initial_candidates.links()) {
    ever.insert(PairKey(u1, u2));
  }
  std::vector<Probe> probes(s.batches.size());
  for (size_t i = 0; i < s.batches.size(); ++i) {
    const ServeDelta& b = s.batches[i];
    Probe& p = probes[i];
    for (const auto& [u1, u2] : b.new_candidates) {
      const uint64_t key = PairKey(u1, u2);
      if (ever.count(key) == 0 && ever_removed.count(key) == 0) {
        p = {Probe::kFresh, u1, u2};
        break;
      }
    }
    if (p.kind == Probe::kNone && !b.new_candidates.empty()) {
      p = {Probe::kReadded, b.new_candidates.front().first,
           b.new_candidates.front().second};
    }
    if (p.kind == Probe::kNone && !b.removed_candidates.empty()) {
      p = {Probe::kRemoved, b.removed_candidates.front().first,
           b.removed_candidates.front().second};
    }
    for (const auto& [u1, u2] : b.new_candidates) ever.insert(PairKey(u1, u2));
  }
  return probes;
}

std::unique_ptr<Live> MakeLive(const Shape& shape, uint64_t seed,
                               ThreadPool* pool, ObsSinks obs) {
  auto live = std::make_unique<Live>();
  live->seed = seed;
  const Clock::time_point t0 = Clock::now();
  auto pair =
      activeiter::AlignedNetworkGenerator(PairConfig(shape, seed)).Generate();
  if (!pair.ok()) return nullptr;
  live->generate_s = Since(t0);
  live->full = std::make_unique<AlignedPair>(std::move(pair).value());
  auto stream = Carve(*live->full, shape, seed);
  if (!stream.ok()) return nullptr;
  double setup_s = Since(t0);

  // Ground truth and probes: benchmark bookkeeping, off the clock.
  activeiter::DeltaStream& s = stream.value();
  live->input_rows = s.StreamedCandidateCount();
  live->users_first =
      live->full->first().NodeCount(activeiter::NodeType::kUser);
  live->probes = MakeProbes(s);
  std::unordered_set<uint64_t> seen;
  auto serve = [&](NodeId u1, NodeId u2) {
    if (seen.insert(PairKey(u1, u2)).second) {
      live->served_pairs.emplace_back(u1, u2);
    }
  };
  for (const auto& [u1, u2] : s.initial_candidates.links()) serve(u1, u2);
  for (const auto& a : s.initial.anchors()) {
    live->anchors.insert(PairKey(a.u1, a.u2));
  }
  for (const ServeDelta& b : s.batches) {
    for (const auto& [u1, u2] : b.new_candidates) serve(u1, u2);
    for (const auto& a : b.graph.new_anchors) {
      live->anchors.insert(PairKey(a.u1, a.u2));
    }
  }

  const Clock::time_point t1 = Clock::now();
  live->ingestor = std::make_unique<ShardedIngestor>(
      std::move(s.initial), s.train_anchors,
      std::move(s.initial_candidates), Options(shape, pool, obs));
  live->batches = std::move(s.batches);
  if (!live->ingestor->Start().ok()) return nullptr;
  live->setup_s = setup_s + Since(t1);
  return live;
}

/// F1 of the served matched set against the stream's anchors, read
/// through the query surface (the serve_cli read-out).
double ServedF1(const Live& live) {
  const QueryBackend& backend = live.ingestor->backend();
  size_t matched = 0;
  size_t correct = 0;
  for (const auto& [u1, u2] : live.served_pairs) {
    auto scored = backend.ScorePair(u1, u2);
    if (!scored.ok() || !scored.value().matched) continue;
    ++matched;
    if (live.anchors.count(PairKey(u1, u2)) != 0) ++correct;
  }
  if (matched == 0 || live.anchors.empty() || correct == 0) return 0.0;
  const double precision = static_cast<double>(correct) / matched;
  const double recall = static_cast<double>(correct) / live.anchors.size();
  return 2.0 * precision * recall / (precision + recall);
}

/// Replays the same stream synchronously — one ApplyOnce per group of
/// batches — and compares every shard with the live run's final state.
void CheckAgainstReference(const Live& live, const Shape& shape,
                           size_t group_size, Report* report,
                           double* max_ulps) {
  auto stream = Carve(*live.full, shape, live.seed);
  if (!stream.ok()) {
    report->Fail("reference carve failed");
    return;
  }
  activeiter::DeltaStream& s = stream.value();
  ShardedIngestor ref(std::move(s.initial), s.train_anchors,
                      std::move(s.initial_candidates),
                      Options(shape, nullptr, {}));
  if (!ref.Start().ok()) {
    report->Fail("reference Start failed");
    return;
  }
  for (size_t b = 0; b < s.batches.size(); b += group_size) {
    const size_t end = std::min(s.batches.size(), b + group_size);
    std::vector<ServeDelta> group(
        std::make_move_iterator(s.batches.begin() + b),
        std::make_move_iterator(s.batches.begin() + end));
    const ServeDelta merged = group.size() == 1
                                  ? std::move(group.front())
                                  : activeiter::MergeServeDeltas(
                                        std::move(group));
    if (!ref.ApplyOnce(merged).ok()) {
      report->Fail("reference ApplyOnce failed");
      return;
    }
  }

  const ShardedIngestor& run = *live.ingestor;
  for (size_t shard = 0; shard < shape.shards; ++shard) {
    const std::string where = "shard " + std::to_string(shard) + ": ";
    auto a = run.shard_service(shard).snapshot();
    auto b = ref.shard_service(shard).snapshot();
    const activeiter::Matrix& xa = run.shard(shard).design();
    const activeiter::Matrix& xb = ref.shard(shard).design();
    if (a == nullptr || b == nullptr || a->size() != b->size() ||
        xa.rows() != a->size() || xb.rows() != b->size() ||
        xa.cols() != xb.cols()) {
      report->Fail(where + "candidate count differs from the reference");
      continue;
    }
    std::unordered_map<uint64_t, size_t> ref_row;
    double scale = 0.0;
    for (size_t j = 0; j < b->size(); ++j) {
      ref_row[PairKey(b->links[j].first, b->links[j].second)] = j;
      scale = std::max(scale, std::fabs(b->scores(j)));
    }
    size_t x_diff = 0, y_diff = 0, score_diff = 0, missing = 0;
    for (size_t i = 0; i < a->size(); ++i) {
      if (run.shard(shard).candidates().link(i) != a->links[i]) ++missing;
      auto j = ref_row.find(PairKey(a->links[i].first, a->links[i].second));
      if (j == ref_row.end()) {
        ++missing;
        continue;
      }
      if (std::memcmp(xa.row_data(i), xb.row_data(j->second),
                      xa.cols() * sizeof(double)) != 0) {
        ++x_diff;
      }
      if (!SameBits(a->y(i), b->y(j->second))) ++y_diff;
      const double ulps =
          UlpsAtScale(a->scores(i), b->scores(j->second), scale);
      *max_ulps = std::max(*max_ulps, ulps);
      if (ulps > kScoreUlpBound) ++score_diff;
    }
    report->Check(missing == 0,
                  where + std::to_string(missing) +
                      " candidates differ from the reference");
    report->Check(x_diff == 0, where + std::to_string(x_diff) +
                                   " design rows differ from the reference");
    report->Check(y_diff == 0, where + std::to_string(y_diff) +
                                   " labels differ from the reference");
    report->Check(score_diff == 0,
                  where + std::to_string(score_diff) +
                      " scores exceed the ulp bound against the reference");
  }
}

/// The end-to-end timings of one window: a serve-steady stream or a
/// serve-burst round, each on its own set-up.
struct Window {
  double job_s_p50 = 0.0;
  double freshness_ms_p50 = 0.0;
  double freshness_ms_p90 = 0.0;
  double query_us_p50 = 0.0;
  double query_us_p99 = 0.0;
  double rows_per_s = 0.0;
};

/// Everything a pass measured; fields a workload does not use stay empty.
struct Pass {
  std::vector<Window> windows;
  // Sample counts behind the per-window percentiles, over all windows.
  uint64_t freshness_samples = 0;
  uint64_t job_samples = 0;
  uint64_t queries = 0;
  /// The fewest samples any one window had behind those percentiles.
  uint64_t min_window_freshness = UINT64_MAX;
  uint64_t min_window_jobs = UINT64_MAX;
  uint64_t min_window_queries = UINT64_MAX;
  std::vector<double> late_ms;
  uint64_t query_errors = 0;
  uint64_t epoch_regressions = 0;
  uint64_t batches = 0;
  uint64_t failed_batches = 0;  // rejected, timed out or never visible
  size_t input_rows = 0;
  std::vector<double> f1;  // one per stream or round
  std::vector<IngestStats> stats;  // one per ingestor
  std::vector<double> setup_s;
  std::vector<double> generate_ms;

  void AddWindow(const std::vector<double>& job_s,
                 const std::vector<double>& freshness_ms,
                 const NsHistogram& query_ns, double rows_per_s) {
    windows.push_back({Median(job_s), Percentile(freshness_ms, 0.5),
                       Percentile(freshness_ms, 0.9),
                       query_ns.PercentileNs(0.5) / 1e3,
                       query_ns.PercentileNs(0.99) / 1e3, rows_per_s});
    job_samples += job_s.size();
    freshness_samples += freshness_ms.size();
    queries += query_ns.count();
    min_window_jobs = std::min<uint64_t>(min_window_jobs, job_s.size());
    min_window_freshness =
        std::min<uint64_t>(min_window_freshness, freshness_ms.size());
    min_window_queries = std::min(min_window_queries, query_ns.count());
  }
};

/// serve-steady's measured pass over one set-up.
void SteadyPass(Live& live, uint64_t seed, Pass* pass) {
  ShardedIngestor& ingestor = *live.ingestor;
  const QueryBackend& backend = ingestor.backend();
  const size_t n = live.batches.size();
  std::vector<double> scheduled(n);
  for (size_t i = 0; i < n; ++i) scheduled[i] = i / kSteadyRate;
  VisibilityTimeline timeline(scheduled);
  std::vector<double> submitted_at(n, 0.0);
  NsHistogram query_ns;
  uint64_t query_errors = 0;
  std::atomic<size_t> submitted{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_epoch{0};
  std::vector<std::pair<uint64_t, double>> epoch_seen;  // first sightings

  ingestor.StartBackground();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::thread reader([&] {
    activeiter::Rng rng(seed ^ 0xD00DULL);
    bool have_epoch = false;
    uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int q = 0; q < 32; ++q) {
        const NodeId u1 =
            static_cast<NodeId>(rng.UniformInt(live.users_first));
        const Clock::time_point begin = Clock::now();
        auto top = backend.TopKFor(u1, kTopK);
        const Clock::time_point end = Clock::now();
        query_ns.Record(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count());
        if (!top.ok()) ++query_errors;
      }
      const uint64_t epoch = backend.epoch();
      if (epoch != QueryBackend::kNoEpoch) {
        if (have_epoch && epoch < last_epoch) ++pass->epoch_regressions;
        if (!have_epoch || epoch > last_epoch) {
          epoch_seen.emplace_back(epoch, Since(t0));
        }
        have_epoch = true;
        last_epoch = std::max(last_epoch, epoch);
        reader_epoch.store(last_epoch, std::memory_order_release);
      }
      const size_t sub = submitted.load(std::memory_order_acquire);
      for (size_t j = sub; j-- > timeline.next_unseen();) {
        const Probe& p = live.probes[j];
        if (p.kind == Probe::kNone) continue;
        if (p.kind != Probe::kFresh && j != timeline.next_unseen()) continue;
        const bool present = backend.ScorePair(p.u1, p.u2).ok();
        if (present == (p.kind != Probe::kRemoved)) {
          timeline.MarkSeen(j, Since(t0));
          break;
        }
      }
    }
  });

  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(scheduled[i])));
    // Counted before the call: a fresh probe cannot match early, and the
    // reader may then spot the batch the moment it lands.
    submitted.store(i + 1, std::memory_order_release);
    submitted_at[i] = Since(t0);
    ingestor.Submit(std::move(live.batches[i]));
  }
  ingestor.Flush();
  const double ingest_s = Since(t0) - submitted_at[0];
  pass->input_rows += live.input_rows;
  const uint64_t final_epoch = backend.epoch();
  const Clock::time_point wait_begin = Clock::now();
  while (reader_epoch.load(std::memory_order_acquire) < final_epoch &&
         Since(wait_begin) < kVisibilityTimeoutS) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  reader.join();
  ingestor.Stop();
  if (!ingestor.background_status().ok()) pass->failed_batches += n;

  // The last batch is applied by the drain that published the final
  // epoch, so the reader's first sighting of that epoch is its visibility
  // (and, by the timeline rule, that of any batch not seen before).
  for (const auto& [epoch, t] : epoch_seen) {
    if (epoch >= final_epoch) {
      timeline.MarkSeen(n - 1, t);
      break;
    }
  }
  size_t timeouts = 0;
  std::vector<double> freshness_ms;
  for (double delay : timeline.Freshness(kVisibilityTimeoutS, &timeouts)) {
    freshness_ms.push_back(delay * 1e3);
  }
  std::vector<double> job_s;
  for (size_t i = 0; i < n; ++i) {
    pass->late_ms.push_back((submitted_at[i] - scheduled[i]) * 1e3);
    if (timeline.seen(i)) {
      job_s.push_back(timeline.visible_at(i) - submitted_at[i]);
    }
  }
  pass->AddWindow(job_s, freshness_ms, query_ns,
                  RowsPerSecond(live.input_rows, ingest_s));
  pass->query_errors += query_errors;
  pass->batches += n;
  pass->failed_batches += timeouts;
  pass->f1.push_back(ServedF1(live));
  pass->stats.push_back(ingestor.stats());
}

/// One serve-burst round over one set-up.
void BurstRound(Live& live, uint64_t seed, Pass* pass) {
  ShardedIngestor& ingestor = *live.ingestor;
  const QueryBackend& backend = ingestor.backend();
  activeiter::Rng rng(seed ^ 0xB0B0ULL);
  ingestor.StartBackground();
  uint64_t last_epoch = backend.epoch();
  const size_t n = live.batches.size();
  std::vector<double> job_s;
  std::vector<double> freshness_ms;
  NsHistogram query_ns;
  double ingest_s = 0.0;
  for (size_t b = 0; b < n; b += kBurst) {
    const size_t end = std::min(n, b + kBurst);
    std::vector<Clock::time_point> submit_at;
    const Clock::time_point begin = Clock::now();
    for (size_t i = b; i < end; ++i) {
      submit_at.push_back(Clock::now());
      ingestor.Submit(std::move(live.batches[i]));
    }
    ingestor.Flush();
    const Clock::time_point flushed = Clock::now();
    ingest_s += std::chrono::duration<double>(flushed - begin).count();
    job_s.push_back(std::chrono::duration<double>(flushed - begin).count());
    for (const Clock::time_point& t : submit_at) {
      freshness_ms.push_back(
          std::chrono::duration<double, std::milli>(flushed - t).count());
    }
    pass->batches += end - b;

    // After Flush every batch of the burst must be visible, and the
    // epoch must have moved forward.
    const uint64_t epoch = backend.epoch();
    if (epoch == QueryBackend::kNoEpoch || epoch <= last_epoch) {
      ++pass->epoch_regressions;
    }
    last_epoch = epoch;
    for (size_t i = b; i < end; ++i) {
      const Probe& p = live.probes[i];
      if (p.kind == Probe::kFresh && !backend.ScorePair(p.u1, p.u2).ok()) {
        ++pass->failed_batches;
      }
    }
    for (size_t q = 0; q < kBurstQueries; ++q) {
      const NodeId u1 = static_cast<NodeId>(rng.UniformInt(live.users_first));
      const Clock::time_point t = Clock::now();
      auto top = backend.TopKFor(u1, kTopK);
      const Clock::time_point done = Clock::now();
      query_ns.Record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(done - t)
              .count());
      if (!top.ok()) ++pass->query_errors;
    }
  }
  ingestor.Stop();
  if (!ingestor.background_status().ok()) pass->failed_batches += n;
  pass->AddWindow(job_s, freshness_ms, query_ns,
                  RowsPerSecond(live.input_rows, ingest_s));
  pass->input_rows += live.input_rows;
  pass->f1.push_back(ServedF1(live));
  pass->stats.push_back(ingestor.stats());
}

/// Runs the workload's measured phase: serve-steady's streams or
/// serve-burst's rounds (until at least `seconds` were measured), each on
/// a fresh timed set-up of its own pair. Returns the last set-up, still
/// holding its final state.
std::unique_ptr<Live> MeasuredPhase(bool burst, const Shape& shape,
                                    const RunOptions& options,
                                    ThreadPool* pool, ObsSinks obs,
                                    Pass* pass, Report* report) {
  std::unique_ptr<Live> live;
  size_t index = 0;
  auto set_up = [&] {
    // Each set-up starts from a trimmed heap: without it the freed pages
    // of earlier set-ups fragment the next one's, and its timings and
    // peak RSS drift with the order of earlier rounds (±15% on one seed,
    // 4-vCPU VM).
    live.reset();
    malloc_trim(0);
    live = MakeLive(shape, DatasetSeed(options.seed, index++), pool, obs);
    if (live == nullptr) {
      report->Fail("set-up failed");
      return false;
    }
    pass->setup_s.push_back(live->setup_s);
    pass->generate_ms.push_back(live->generate_s * 1e3);
    return true;
  };
  const size_t streams = static_cast<size_t>(
      std::max(1.0, std::round(options.seconds / kStreamSeconds)));
  double measured = 0.0;
  for (size_t round = 0;
       burst ? measured < options.seconds : round < streams; ++round) {
    if (!set_up()) return nullptr;
    const Clock::time_point t = Clock::now();
    if (burst) {
      BurstRound(*live, options.seed + round, pass);
    } else {
      SteadyPass(*live, options.seed + round, pass);
    }
    measured += Since(t);
  }
  return live;
}

/// Times kSetupOnly more set-ups, each discarded at once.
bool TimeMoreSetups(const Shape& shape, const RunOptions& options,
                    ThreadPool* pool, ObsSinks obs, Pass* pass) {
  for (size_t i = 0; i < kSetupOnly; ++i) {
    malloc_trim(0);
    std::unique_ptr<Live> live =
        MakeLive(shape, DatasetSeed(options.seed, i), pool, obs);
    if (live == nullptr) return false;
    pass->setup_s.push_back(live->setup_s);
    pass->generate_ms.push_back(live->generate_s * 1e3);
  }
  return true;
}

/// A run's value of a per-window figure: the median over its windows.
/// Each end-to-end timing is taken per window (a serve-steady stream or a
/// serve-burst round, each on its own pair), so a few windows that meet a
/// busy moment of a shared host, or one pair's long tail, do not set a
/// run's percentiles the way they would set pooled ones.
double AcrossWindows(const Pass& pass, double Window::*field) {
  std::vector<double> values;
  for (const Window& w : pass.windows) values.push_back(w.*field);
  return Median(values);
}

/// The end-to-end metric every serve workload leads with, for the trace
/// overhead: freshness under steady load, throughput under bursts.
double Primary(bool burst, const Pass& pass) {
  return burst ? AcrossWindows(pass, &Window::rows_per_s)
               : AcrossWindows(pass, &Window::freshness_ms_p50);
}

void Account(const Pass& pass, Report* report) {
  report->attempted += pass.batches + pass.queries;
  report->failed += pass.failed_batches + pass.query_errors;
  report->Check(pass.epoch_regressions == 0,
                "published epochs went backwards or did not advance");
  report->Check(pass.failed_batches == 0,
                std::to_string(pass.failed_batches) +
                    " batches failed or were never seen");
  report->Check(pass.query_errors == 0,
                std::to_string(pass.query_errors) + " queries failed");
}

void AddEndToEnd(const Pass& pass, double peak_rss, Report* report) {
  const uint64_t nq = pass.queries;
  report->Add("setup_s", Median(pass.setup_s), "s", pass.setup_s.size());
  report->Add("peak_rss_mb", peak_rss, "MB");
  report->Add("ok_frac",
              1.0 - static_cast<double>(report->failed) /
                        static_cast<double>(std::max<uint64_t>(
                            report->attempted, 1)),
              "frac", report->attempted);
  double f1 = 0.0;
  for (double v : pass.f1) f1 += v / static_cast<double>(pass.f1.size());
  report->Add("f1", f1, "frac", pass.f1.size());
  report->Add("job_s_p50", AcrossWindows(pass, &Window::job_s_p50), "s",
              pass.job_samples, PercentileResolved(pass.min_window_jobs, 0.5));
  report->Add("freshness_ms_p50",
              AcrossWindows(pass, &Window::freshness_ms_p50), "ms",
              pass.freshness_samples,
              PercentileResolved(pass.min_window_freshness, 0.5));
  report->Add("freshness_ms_p90",
              AcrossWindows(pass, &Window::freshness_ms_p90), "ms",
              pass.freshness_samples,
              PercentileResolved(pass.min_window_freshness, 0.9));
  report->Add("query_us_p50", AcrossWindows(pass, &Window::query_us_p50),
              "us", nq, PercentileResolved(pass.min_window_queries, 0.5));
  report->Add("query_us_p99", AcrossWindows(pass, &Window::query_us_p99),
              "us", nq, PercentileResolved(pass.min_window_queries, 0.99));
  report->Add("ingest_rows_per_s",
              AcrossWindows(pass, &Window::rows_per_s), "rows/s",
              pass.windows.size());
}

double MeanUs(const activeiter::Histogram* h) {
  return h == nullptr || h->count() == 0
             ? 0.0
             : h->sum() / static_cast<double>(h->count());
}

uint64_t CounterValue(const char* name) {
  const activeiter::Counter* c =
      MetricsRegistry::Default().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

void AddPerLayer(const Shape& shape, const Pass& pass,
                 const std::vector<SpanEvent>& events,
                 const MetricsRegistry& registry, uint64_t spliced,
                 uint64_t recomputed, double overhead, Report* report) {
  auto median_span = [&](const char* metric, const char* span,
                         const char* thread_marker) {
    const std::vector<double> d =
        DurationsOnThreadsUs(events, span, thread_marker);
    report->Add(metric, Median(d), "us", d.size());
  };
  std::vector<double> drains, batches_per_drain, stalls, inflight,
      factorisations, rank_one, fallbacks;
  double total_drains = 0.0;
  double replaced = 0.0;
  for (const IngestStats& s : pass.stats) {
    const double d = static_cast<double>(s.epochs_published - 1);
    drains.push_back(d);
    total_drains += d;
    batches_per_drain.push_back(d > 0 ? s.deltas_applied / d : 0.0);
    stalls.push_back(static_cast<double>(s.pipeline_stalls));
    inflight.push_back(static_cast<double>(s.max_inflight_planes));
    factorisations.push_back(static_cast<double>(s.full_factorisations));
    rank_one.push_back(static_cast<double>(s.rank_one_updates));
    fallbacks.push_back(static_cast<double>(s.full_factorisations) -
                        static_cast<double>(shape.shards));
    replaced += static_cast<double>(s.rows_replaced);
  }
  auto per_drain = [&](const char* metric, const char* span) {
    double total = 0.0;
    for (double d : DurationsUs(events, span)) total += d;
    report->Add(metric, total_drains > 0 ? total / total_drains : 0.0, "us",
                static_cast<uint64_t>(total_drains));
  };

  report->Add("datagen.generate_ms", Median(pass.generate_ms), "ms",
              pass.generate_ms.size());
  // Start()'s full extraction, per set-up (each shard extracts its slice).
  double extract_us = 0.0;
  for (double d : DurationsUs(events, "ingest.plane_extract")) extract_us += d;
  report->Add("metadiagram.extract_ms",
              extract_us / 1e3 / static_cast<double>(pass.setup_s.size()),
              "ms", pass.setup_s.size());
  median_span("metadiagram.plane_refresh_us", "ingest.plane_refresh",
              "ingest.pipeline.prepare");
  report->Add("linalg.spgemm_splice_frac",
              spliced + recomputed == 0
                  ? 0.0
                  : static_cast<double>(spliced) / (spliced + recomputed),
              "frac", spliced + recomputed);
  median_span("graph.plane_apply_us", "ingest.plane_apply",
              "ingest.pipeline.prepare");
  per_drain("learn.replace_rows_us", "ingest.replace_rows");
  per_drain("learn.append_rows_us", "ingest.append_rows");
  per_drain("linalg.remove_coalesce_us", "ingest.remove_coalesce");
  median_span("align.realign_us", "ingest.realign", "ingest.apply_slice");
  report->Add("linalg.cholesky.factorisations", Median(factorisations),
              "count");
  report->Add("linalg.cholesky.rank_one_updates", Median(rank_one), "count");
  report->Add("linalg.cholesky.downdate_fallbacks", Median(fallbacks),
              "count");
  report->Add("serve.replaced_rows_per_input_row",
              pass.input_rows > 0 ? replaced / pass.input_rows : 0.0,
              "ratio");
  report->Add("serve.batches_per_drain", Median(batches_per_drain), "ratio");
  report->Add("serve.drains", Median(drains), "count");
  median_span("serve.apply_slice_us", "ingest.apply_slice",
              "ingest.apply_slice");
  // Skew of the slowest shard over the mean, per ingestor.
  std::vector<double> skews;
  {
    const auto per_thread = TotalPerThreadUs(events, "ingest.apply_slice");
    std::vector<double> totals;
    for (const auto& [tid, total] : per_thread) totals.push_back(total);
    // Executor threads come in groups of `shards`, one group per ingestor,
    // in thread-creation order.
    for (size_t g = 0; g + shape.shards <= totals.size();
         g += shape.shards) {
      double max = 0.0, sum = 0.0;
      for (size_t s = g; s < g + shape.shards; ++s) {
        max = std::max(max, totals[s]);
        sum += totals[s];
      }
      if (sum > 0.0) skews.push_back(max / (sum / shape.shards));
    }
  }
  report->Add("serve.shard_skew", Median(skews), "ratio", skews.size());
  report->Add("serve.pipeline_stalls", Median(stalls), "count");
  report->Add("serve.max_inflight_planes", Median(inflight), "count");
  median_span("serve.snapshot_publish_us", "ingest.snapshot_publish",
              "ingest.apply_slice");
  const std::vector<double> submit = DurationsUs(events, "ingest.submit");
  report->Add("serve.submit_us", Median(submit), "us", submit.size());
  report->Add("serve.routing_overhead_us",
              MeanUs(registry.FindHistogram("serve.router.topk_us")) -
                  MeanUs(registry.FindHistogram("serve.query.topk_us")),
              "us");
  const std::vector<double> coverage = DrainCoverage(events);
  report->Add("serve.stage_coverage_frac", Median(coverage), "frac",
              coverage.size());
  report->Add("obs.trace_overhead_frac", overhead, "frac");
  report->Add("bench.generator_late_ms_p99", Percentile(pass.late_ms, 0.99),
              "ms", pass.late_ms.size(),
              PercentileResolved(pass.late_ms.size(), 0.99));
}

Report RunServe(bool burst, const RunOptions& options) {
  Report report;
  const Shape shape = burst ? BurstShape() : SteadyShape();
  std::unique_ptr<ThreadPool> pool;
  if (shape.pool_threads > 0) {
    pool = std::make_unique<ThreadPool>(shape.pool_threads);
  }

  Pass pass;
  std::unique_ptr<Live> live = MeasuredPhase(burst, shape, options,
                                             pool.get(), {}, &pass, &report);
  if (live == nullptr) return report;
  Account(pass, &report);
  const double peak_rss = PeakRssMb();
  double max_ulps = 0.0;

  if (!options.trace) {
    CheckAgainstReference(*live, shape, burst ? kBurst : 1,
                          &report, &max_ulps);
    report.Check(pass.stats.back().full_factorisations == shape.shards,
                 "full factorisations differ from the shard count");
    live.reset();
    report.Check(TimeMoreSetups(shape, options, pool.get(), {}, &pass),
                 "set-up failed");
    AddEndToEnd(pass, peak_rss, &report);
    return report;
  }

  // Traced pass: the same phase with a metrics registry and a tracer
  // attached. The query histograms are registered first with 5 ns
  // buckets, so the router-minus-service gap resolves sub-µs queries.
  live.reset();
  MetricsRegistry registry;
  std::vector<double> fine_bounds;
  for (int i = 1; i <= 4000; ++i) fine_bounds.push_back(i * 0.005);
  registry.GetHistogram("serve.query.topk_us", fine_bounds);
  registry.GetHistogram("serve.router.topk_us", fine_bounds);
  Tracer tracer(1 << 18);
  ObsSinks obs;
  obs.metrics = &registry;
  obs.tracer = &tracer;
  const uint64_t spliced0 = CounterValue("linalg.spgemm.rows_spliced");
  const uint64_t recomputed0 = CounterValue("linalg.spgemm.rows_recomputed");
  Pass traced;
  live = MeasuredPhase(burst, shape, options, pool.get(), obs, &traced,
                       &report);
  if (live == nullptr) return report;
  Account(traced, &report);
  const uint64_t spliced = CounterValue("linalg.spgemm.rows_spliced") -
                           spliced0;
  const uint64_t recomputed =
      CounterValue("linalg.spgemm.rows_recomputed") - recomputed0;
  CheckAgainstReference(*live, shape, burst ? kBurst : 1,
                        &report, &max_ulps);
  for (const IngestStats& s : traced.stats) {
    report.Check(s.full_factorisations == shape.shards,
                 "full factorisations differ from the shard count");
  }
  live.reset();
  report.Check(TimeMoreSetups(shape, options, pool.get(), obs, &traced),
               "set-up failed");

  std::ostringstream json;
  tracer.WriteJson(json);
  const std::vector<SpanEvent> events = ParseTraceJson(json.str());
  const double untraced = Primary(burst, pass);
  const double with_trace = Primary(burst, traced);
  // Positive = tracing made the primary metric worse.
  const double overhead =
      burst ? (with_trace > 0.0 ? untraced / with_trace - 1.0 : 0.0)
            : (untraced > 0.0 ? with_trace / untraced - 1.0 : 0.0);
  AddPerLayer(shape, traced, events, registry, spliced, recomputed, overhead,
              &report);
  report.Add("bench.score_ulps_max", max_ulps, "ulp");
  return report;
}

}  // namespace

Report RunServeSteady(const RunOptions& options) {
  return RunServe(false, options);
}

Report RunServeBurst(const RunOptions& options) {
  return RunServe(true, options);
}

}  // namespace perfbench
