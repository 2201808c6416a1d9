// Serve-layer ingest scaling: rows/second absorbed by the sharded
// ingestor at 1, 2 and 4 shards on an identical carved delta stream.
//
// What the shape means: each drain refreshes the shared feature engine
// once (serial, graph-sized) and then realigns every shard's slice of H.
// The realign/selection cost is superlinear in |H|, so splitting H across N
// shards shrinks the summed model work even on a single core; on a
// multi-core host the per-shard fan-out stacks wall-clock parallelism on
// top. Flat-or-falling throughput from 1 → 4 shards is a regression.
//
// Three comparisons per shard count, all min-of-N over interleaved
// repetitions (detached/attached and serial/pipelined alternate within
// each rep, so allocator growth, page faults and frequency drift hit both
// arms evenly instead of being billed to whichever arm ran first):
//
//   1. obs overhead — detached sinks (production default) vs a fresh
//      MetricsRegistry + Tracer. Contract: ≤5% ingest throughput; the
//      reported fraction is clamped at 0 because min-of-N still carries
//      ±noise at tiny scales. The attached tracer yields the per-stage
//      breakdown that --record=PATH writes into BENCH_serve.json.
//   2. pipelined vs serial — per-delta drains at pipeline_depth 0 (serial
//      coordinator: prepare and absorb strictly alternate) vs depth 1
//      (the coordinator prepares drain N+1 on the one plane while shard
//      executors absorb drain N through its FeatureView). Outputs must be
//      bitwise identical — every rep cross-checks a FNV fingerprint of all
//      per-shard snapshots (scores, labels, weights, ranked lists).
//      Target on multi-core hosts: ≥1.4× at 2+ shards; on a single
//      hardware thread the two stages time-slice and the ratio is ~1.
//   3. TopK latency — snapshots pre-rank links_of_first at build time, so
//      TopKFor is an O(k) prefix copy; topk_avg_us tracks the query path.
//
// The workload mirrors the BENCH_serve.json record: candidate-heavy
// (ACTIVEITER_NP_RATIO, default 40) so model work dominates the plane
// refresh. Honors the usual bench env overrides plus:
//   ACTIVEITER_NP_RATIO      candidate NP ratio for the carve (default 40)
//   ACTIVEITER_SERVE_BATCHES growth batches to stream (default 16)
//   ACTIVEITER_SERVE_REPS    interleaved timing repetitions (default 3)

#include "bench/bench_common.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/delta_stream.h"
#include "src/serve/shard.h"

namespace activeiter {
namespace {

using bench::BenchEnv;

struct RunOut {
  size_t rows = 0;
  double ingest_ms = 0.0;
  double topk_avg_us = 0.0;
  uint64_t fingerprint = 0;
  IngestStats stats;
  bool ok = false;
};

/// FNV-1a over the bit patterns of every per-shard snapshot: candidate
/// pairs, scores, labels, weights and the pre-ranked per-user lists. Two
/// runs that absorbed the same stream must collide exactly — this is the
/// bench-side guard behind the pipelined-ingest bitwise contract (the
/// element-by-element proof lives in pipeline_equivalence_test).
uint64_t SnapshotFingerprint(const ShardedIngestor& ingestor) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  auto mix_double = [&mix](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  for (size_t i = 0; i < ingestor.num_shards(); ++i) {
    auto snap = ingestor.shard_service(i).snapshot();
    if (snap == nullptr) continue;
    mix(snap->epoch);
    mix(snap->links.size());
    for (const auto& [u1, u2] : snap->links) {
      mix(static_cast<uint64_t>(u1));
      mix(static_cast<uint64_t>(u2));
    }
    for (size_t j = 0; j < snap->scores.size(); ++j) mix_double(snap->scores(j));
    for (size_t j = 0; j < snap->y.size(); ++j) mix_double(snap->y(j));
    for (size_t j = 0; j < snap->w.size(); ++j) mix_double(snap->w(j));
    for (const auto& ranked : snap->links_of_first) {
      mix(ranked.size());
      for (size_t id : ranked) mix(id);
    }
  }
  return h;
}

/// One background-ingest run at a fixed shard count / drain policy /
/// pipeline depth. Checks the epoch monotonicity and publish-accounting
/// invariants; `obs` is forwarded to the ingestor (null sinks = the
/// detached production configuration). After ingest settles the final
/// per-shard snapshots are fingerprinted and a TopK timing loop runs
/// against the router (the snapshot pre-ranks its per-user lists, so this
/// times the O(k) prefix-copy query path).
RunOut RunOnce(const AlignedPair& pair, const BenchEnv& env, double np_ratio,
               size_t batches, size_t num_shards, ObsSinks obs,
               DrainPolicy drain, size_t pipeline_depth) {
  RunOut out;
  // Re-carve per run: ingest consumes the stream's deltas.
  DeltaStreamOptions carve;
  carve.num_batches = batches;
  carve.initial_fraction = 0.5;
  carve.np_ratio = np_ratio;
  carve.seed = env.seed ^ 0x5EEDULL;
  auto stream = CarveDeltaStream(pair, carve);
  if (!stream.ok()) {
    std::cerr << "carve failed: " << stream.status() << "\n";
    return out;
  }
  DeltaStream& s = stream.value();

  IngestorOptions options;
  options.partition.num_shards = num_shards;
  options.obs = obs;
  options.drain = drain;
  options.pipeline_depth = pipeline_depth;
  ShardedIngestor ingestor(std::move(s.initial), s.train_anchors,
                           std::move(s.initial_candidates), options);
  if (Status st = ingestor.Start(); !st.ok()) {
    std::cerr << "start failed: " << st << "\n";
    return out;
  }

  // Watch the serving epoch concurrently with ingest: published epochs
  // must only ever move forward (snapshot-swap serving, no rollbacks).
  std::atomic<bool> watching{true};
  std::atomic<size_t> epoch_regressions{0};
  std::thread epoch_watcher([&] {
    uint64_t last = ingestor.backend().epoch();
    while (watching.load(std::memory_order_relaxed)) {
      const uint64_t now = ingestor.backend().epoch();
      if (now < last) epoch_regressions.fetch_add(1);
      last = now;
      std::this_thread::yield();
    }
  });

  Stopwatch watch;
  ingestor.StartBackground();
  for (ServeDelta& batch : s.batches) ingestor.Submit(std::move(batch));
  ingestor.Flush();
  out.ingest_ms = watch.ElapsedMillis();
  ingestor.Stop();
  watching.store(false);
  epoch_watcher.join();
  if (!ingestor.background_status().ok()) {
    std::cerr << "ingest failed: " << ingestor.background_status() << "\n";
    return out;
  }

  out.stats = ingestor.stats();
  // Bookkeeping invariant: every applied delta beyond the coalesced ones
  // publishes exactly one epoch on top of the epoch-0 Start() publish.
  if (out.stats.deltas_applied - out.stats.coalesced_batches !=
      out.stats.epochs_published - 1) {
    std::cerr << "INVARIANT VIOLATED at " << num_shards
              << " shards: deltas_applied(" << out.stats.deltas_applied
              << ") - coalesced(" << out.stats.coalesced_batches
              << ") != epochs_published(" << out.stats.epochs_published
              << ") - 1\n";
    return out;
  }
  if (epoch_regressions.load() != 0) {
    std::cerr << "INVARIANT VIOLATED at " << num_shards << " shards: "
              << epoch_regressions.load()
              << " serving-epoch regressions observed during ingest\n";
    return out;
  }
  // Every submitted batch was applied or discarded, so an attached lag
  // gauge must have settled back to zero — and so must the pipeline-depth
  // gauge (no drain left in flight past Flush).
  if (obs.metrics != nullptr) {
    const Gauge* lag = obs.metrics->FindGauge("serve.ingest.epoch_lag");
    if (lag != nullptr && lag->value() != 0) {
      std::cerr << "INVARIANT VIOLATED at " << num_shards
                << " shards: epoch lag gauge is " << lag->value()
                << " after Flush (want 0)\n";
      return out;
    }
    const Gauge* depth = obs.metrics->FindGauge("ingest.pipeline.depth");
    if (depth != nullptr && depth->value() != 0) {
      std::cerr << "INVARIANT VIOLATED at " << num_shards
                << " shards: pipeline depth gauge is " << depth->value()
                << " after Flush (want 0)\n";
      return out;
    }
  }
  out.rows = out.stats.rows_appended + out.stats.rows_replaced;
  out.fingerprint = SnapshotFingerprint(ingestor);

  // TopK timing against the settled router: the pre-ranked snapshot makes
  // each call an O(k) prefix copy + merge across shards.
  constexpr size_t kQueries = 2048;
  constexpr size_t kTopK = 8;
  const size_t users = pair.first().NodeCount(NodeType::kUser);
  size_t served = 0;
  Stopwatch topk_watch;
  for (size_t q = 0; q < kQueries; ++q) {
    auto top = ingestor.backend().TopKFor(
        static_cast<NodeId>(q % (users > 0 ? users : 1)), kTopK);
    if (top.ok()) served += top.value().size();
  }
  const double topk_ms = topk_watch.ElapsedMillis();
  out.topk_avg_us = 1000.0 * topk_ms / static_cast<double>(kQueries);
  if (served == 0) {
    std::cerr << "INVARIANT VIOLATED at " << num_shards
              << " shards: TopK timing loop served zero links\n";
    return out;
  }
  out.ok = true;
  return out;
}

double RowsPerSec(const RunOut& r) {
  return r.ingest_ms > 0.0
             ? 1000.0 * static_cast<double>(r.rows) / r.ingest_ms
             : 0.0;
}

/// Keeps whichever run timed faster (fingerprints/stats ride along with
/// the kept run — identical across reps by the bitwise contract).
void KeepMin(RunOut& best, RunOut&& candidate) {
  if (!best.ok || candidate.ingest_ms < best.ingest_ms) {
    best = std::move(candidate);
  }
}

struct ShardResult {
  size_t num_shards = 0;
  RunOut detached;
  RunOut attached;
  RunOut serial;     // per-delta drains, pipeline_depth 0, detached
  RunOut pipelined;  // per-delta drains, pipeline_depth 1, detached
  bool bitwise_equal = false;
  std::map<std::string, Tracer::StageTotal> stages;
};

bool WriteRecord(const std::string& path, const BenchEnv& env,
                 double np_ratio, size_t batches, size_t reps,
                 const std::vector<ShardResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  out << "{\n"
      << "  \"bench\": \"serve\",\n"
      << "  \"scale\": \"" << env.scale << "\",\n"
      << "  \"seed\": " << env.seed << ",\n"
      << "  \"batches\": " << batches << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"np_ratio\": " << StrFormat("%.1f", np_ratio) << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ShardResult& r = results[i];
    const double detached = RowsPerSec(r.detached);
    const double attached = RowsPerSec(r.attached);
    // Min-of-N interleaved reps still jitter at small scales; a negative
    // overhead is measurement noise, not the obs layer adding speed.
    const double overhead = std::max(
        0.0, detached > 0.0 ? (detached - attached) / detached : 0.0);
    const double serial = RowsPerSec(r.serial);
    const double pipelined = RowsPerSec(r.pipelined);
    out << "    {\"shards\": " << r.num_shards << ", \"rows\": " << r.detached.rows
        << ",\n     \"ingest_ms_detached\": "
        << StrFormat("%.3f", r.detached.ingest_ms)
        << ", \"rows_per_sec_detached\": " << StrFormat("%.1f", detached)
        << ",\n     \"ingest_ms_attached\": "
        << StrFormat("%.3f", r.attached.ingest_ms)
        << ", \"rows_per_sec_attached\": " << StrFormat("%.1f", attached)
        << ",\n     \"obs_overhead_frac\": " << StrFormat("%.4f", overhead)
        << ",\n     \"topk_avg_us\": "
        << StrFormat("%.3f", r.detached.topk_avg_us)
        << ",\n     \"rows_per_sec_serial\": " << StrFormat("%.1f", serial)
        << ", \"rows_per_sec_pipelined\": " << StrFormat("%.1f", pipelined)
        << ",\n     \"pipeline_speedup\": "
        << StrFormat("%.3f", serial > 0.0 ? pipelined / serial : 0.0)
        << ", \"pipeline_stalls\": " << r.pipelined.stats.pipeline_stalls
        << ", \"max_inflight_planes\": "
        << r.pipelined.stats.max_inflight_planes
        << ",\n     \"bitwise_equal\": "
        << (r.bitwise_equal ? "true" : "false")
        << ",\n     \"epochs_published\": " << r.detached.stats.epochs_published
        << ", \"coalesced_batches\": " << r.detached.stats.coalesced_batches
        << ", \"full_factorisations\": "
        << r.detached.stats.full_factorisations << ",\n     \"stage_us\": {";
    bool first = true;
    for (const auto& [name, total] : r.stages) {
      out << (first ? "\n" : ",\n") << "       \"" << name
          << "\": {\"count\": " << total.count
          << ", \"total_us\": " << StrFormat("%.1f", total.total_us) << "}";
      first = false;
    }
    out << (first ? "" : "\n     ") << "}}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

int Run(const std::string& record_path) {
  using namespace activeiter::bench;
  BenchEnv env = ReadEnv();
  const double np_ratio =
      static_cast<double>(EnvSize("ACTIVEITER_NP_RATIO", 40));
  const size_t batches = EnvSize("ACTIVEITER_SERVE_BATCHES", 16);
  const size_t reps = std::max<size_t>(1, EnvSize("ACTIVEITER_SERVE_REPS", 3));
  PrintHeader("Serve scaling — sharded ingest throughput vs shard count",
              env);
  AlignedPair pair = MakePair(env);
  std::cout << "host hardware threads: "
            << std::thread::hardware_concurrency() << "\n";

  std::cout << "shards  rows     ingest_ms  rows_per_s  obs_rows_per_s  "
               "obs_ovh  topk_us  epochs  coalesced\n";
  double base_rows_per_s = 0.0;
  std::vector<ShardResult> results;
  const IngestorOptions defaults;
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardResult result;
    result.num_shards = num_shards;
    // Discarded warm-up: the first run at each shard count pays page
    // faults and allocator growth that no timed arm should be billed for.
    if (!RunOnce(pair, env, np_ratio, batches, num_shards, ObsSinks{},
                 defaults.drain, defaults.pipeline_depth)
             .ok) {
      return 1;
    }
    // Interleaved min-of-N: detached and attached alternate within each
    // rep so drift (thermal, allocator, cache residency) is split evenly
    // between the arms rather than skewing the overhead fraction.
    for (size_t rep = 0; rep < reps; ++rep) {
      RunOut detached =
          RunOnce(pair, env, np_ratio, batches, num_shards, ObsSinks{},
                  defaults.drain, defaults.pipeline_depth);
      if (!detached.ok) return 1;
      KeepMin(result.detached, std::move(detached));

      // Attached twin: fresh sinks per rep so stage totals and counters
      // are per-run, not cumulative; the fastest rep's trace is kept.
      MetricsRegistry registry;
      Tracer tracer;
      ObsSinks obs;
      obs.metrics = &registry;
      obs.tracer = &tracer;
      RunOut attached = RunOnce(pair, env, np_ratio, batches, num_shards,
                                obs, defaults.drain, defaults.pipeline_depth);
      if (!attached.ok) return 1;
      const bool fastest =
          !result.attached.ok || attached.ingest_ms < result.attached.ingest_ms;
      KeepMin(result.attached, std::move(attached));
      if (fastest) result.stages = tracer.StageTotals();
    }

    // Pipelined vs serial: per-delta drains give the coordinator a real
    // stream of prepare/absorb hand-offs to overlap. Both arms run
    // detached; every rep cross-checks the snapshot fingerprints — the
    // pipeline must change wall-clock only, never a bit of output.
    result.bitwise_equal = true;
    for (size_t rep = 0; rep < reps; ++rep) {
      RunOut serial = RunOnce(pair, env, np_ratio, batches, num_shards,
                              ObsSinks{}, DrainPolicy::kPerDelta, 0);
      if (!serial.ok) return 1;
      RunOut pipelined = RunOnce(pair, env, np_ratio, batches, num_shards,
                                 ObsSinks{}, DrainPolicy::kPerDelta, 1);
      if (!pipelined.ok) return 1;
      if (serial.fingerprint != pipelined.fingerprint) {
        std::cerr << "INVARIANT VIOLATED at " << num_shards
                  << " shards: pipelined snapshot fingerprint diverged from "
                     "serial (rep "
                  << rep << ")\n";
        result.bitwise_equal = false;
        return 1;
      }
      KeepMin(result.serial, std::move(serial));
      KeepMin(result.pipelined, std::move(pipelined));
    }

    const double detached = RowsPerSec(result.detached);
    const double attached = RowsPerSec(result.attached);
    if (num_shards == 1) base_rows_per_s = detached;
    std::printf(
        "%-7zu %-8zu %-10.1f %-11.0f %-15.0f %-8s %-8.2f %-7zu %zu\n",
        num_shards, result.detached.rows, result.detached.ingest_ms,
        detached, attached,
        StrFormat("%.1f%%",
                  detached > 0.0
                      ? std::max(0.0, 100.0 * (detached - attached) / detached)
                      : 0.0)
            .c_str(),
        result.detached.topk_avg_us,
        result.detached.stats.epochs_published,
        result.detached.stats.coalesced_batches);
    results.push_back(std::move(result));
  }

  std::cout << "\npipelined vs serial (per-delta drains, depth 1 vs 0, "
               "bitwise-checked):\n"
            << "shards  serial_rows_s  pipelined_rows_s  speedup  stalls  "
               "max_inflight\n";
  for (const ShardResult& r : results) {
    const double serial = RowsPerSec(r.serial);
    const double pipelined = RowsPerSec(r.pipelined);
    std::printf("%-7zu %-14.0f %-17.0f %-8s %-7llu %llu\n", r.num_shards,
                serial, pipelined,
                StrFormat("%.2fx", serial > 0.0 ? pipelined / serial : 0.0)
                    .c_str(),
                static_cast<unsigned long long>(
                    r.pipelined.stats.pipeline_stalls),
                static_cast<unsigned long long>(
                    r.pipelined.stats.max_inflight_planes));
  }
  std::cout << "# expected shape: rows_per_s non-decreasing in shard count\n"
            << "#   (superlinear realign split; plus parallel fan-out when\n"
            << "#   cores allow). 1-shard baseline: " << base_rows_per_s
            << " rows/s. obs_ovh is the attached-sinks throughput cost\n"
            << "#   (contract: ~<=5% — noisy at tiny scales). pipeline\n"
            << "#   speedup needs >=2 hardware threads to express; on one\n"
            << "#   thread the stages time-slice and ~1.0x is expected.\n";

  if (!record_path.empty() &&
      !WriteRecord(record_path, env, np_ratio, batches, reps, results)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace activeiter

int main(int argc, char** argv) {
  std::string record_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--record=", 9) == 0) record_path = argv[i] + 9;
  }
  return activeiter::Run(record_path);
}
