// The three benchmark workloads and the report each run produces.
//
// Every workload measures the same end-to-end metrics (README.md gives the
// per-workload meaning of each) when untraced, and the per-layer metrics
// of the layers it exercises when traced; run.py reports the rest as 0.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 for a count or a single measurement).
  uint64_t samples = 0;
  /// False when a percentile has fewer than kMinTail samples beyond it.
  bool resolved = true;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Correctness-check failures, one line each.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, bool resolved = true) {
    metrics.push_back({name, value, unit, samples, resolved});
  }
  /// Records a failed correctness check (the run then exits non-zero).
  void Fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// Ingest throughput. `rows` are the input rows a stream carries
/// (DeltaStream::StreamedCandidateCount) — never the rows a drain happens
/// to re-absorb, which depend on the drain policy: the same bench-scale
/// stream absorbs 85,486 rows under per-delta drains but 14,353 under
/// coalesced drains.
inline double RowsPerSecond(size_t rows, double seconds) {
  return seconds > 0.0 ? static_cast<double>(rows) / seconds : 0.0;
}

/// Seed of the `index`-th generated pair of a run: workloads pool several
/// pairs per run so their medians do not hinge on one pair.
inline uint64_t DatasetSeed(uint64_t seed, size_t index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);  // SplitMix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

Report RunOffline(const RunOptions& options);
Report RunServeSteady(const RunOptions& options);
Report RunServeBurst(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
