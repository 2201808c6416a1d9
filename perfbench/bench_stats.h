// Sample statistics and load-accounting rules shared by every workload.
//
// Everything here is deliberately small and free of library state so the
// helper tests can pin each rule on hand-made inputs.

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the ⌈q·n⌉-th smallest sample (q in (0, 1]);
/// q = 0.5 is the lower median. 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Samples ranked strictly above the q-th percentile's rank.
inline size_t TailCount(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// The sample-count rule: a percentile is reported as resolved only when
/// at least `kMinTail` samples lie beyond it.
constexpr size_t kMinTail = 10;
inline bool PercentileResolved(size_t n, double q) {
  return TailCount(n, q) >= kMinTail;
}

/// Latency histogram at 1 ns resolution up to kSpanNs; slower samples are
/// kept exactly in an overflow list. Constant memory per recorded sample
/// (the query path records ~10^7 samples per run).
class NsHistogram {
 public:
  static constexpr uint32_t kSpanNs = 1u << 16;

  NsHistogram() : buckets_(kSpanNs, 0) {}

  void Record(int64_t ns) {
    if (ns < 0) ns = 0;
    if (ns < static_cast<int64_t>(kSpanNs)) {
      ++buckets_[static_cast<size_t>(ns)];
    } else {
      overflow_.push_back(ns);
    }
    ++count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank percentile in nanoseconds (0 when empty). A sample
  /// recorded as i ns took between i and i + 1 ns, so a rank that falls
  /// among the samples of bucket i reads i plus its position among them:
  /// sub-ns queries tie in a few buckets, and a plain bucket value would
  /// read the same from run to run however the latency moved within it.
  double PercentileNs(double q) const {
    if (count_ == 0) return 0.0;
    uint64_t rank =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::min<uint64_t>(std::max<uint64_t>(rank, 1), count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (seen + buckets_[i] >= rank) {
        return static_cast<double>(i) +
               (static_cast<double>(rank - seen) - 0.5) /
                   static_cast<double>(buckets_[i]);
      }
      seen += buckets_[i];
    }
    std::vector<int64_t> tail = overflow_;
    std::sort(tail.begin(), tail.end());
    return static_cast<double>(tail[rank - seen - 1]);
  }

 private:
  std::vector<uint64_t> buckets_;
  std::vector<int64_t> overflow_;
  uint64_t count_ = 0;
};

/// The freshness rule of an open-loop stream. Batch i is scheduled at
/// scheduled[i]; a reader reports, from time to time, that it saw batch j
/// reflected in a query answer. Drains apply batches in submission order,
/// so seeing batch j proves every batch i ≤ j is applied: batch i counts
/// as visible at the first sighting of i or of any later batch. A batch
/// whose own change was undone by a later batch before anyone saw it (a
/// removal re-added) is therefore still timed, by the later sighting.
class VisibilityTimeline {
 public:
  explicit VisibilityTimeline(std::vector<double> scheduled_s)
      : scheduled_(std::move(scheduled_s)),
        visible_(scheduled_.size(), kUnseen) {}

  /// Reader sighting: batch `j` is visible at time `t_s`.
  void MarkSeen(size_t j, double t_s) {
    if (j >= visible_.size()) return;
    for (size_t i = next_unseen_; i <= j; ++i) visible_[i] = t_s;
    next_unseen_ = std::max(next_unseen_, j + 1);
  }

  /// First batch no sighting covers yet (== size() once all are seen).
  size_t next_unseen() const { return next_unseen_; }
  bool seen(size_t i) const { return visible_[i] != kUnseen; }
  double visible_at(size_t i) const { return visible_[i]; }

  /// Scheduled-to-visible delay of every batch seen within `timeout_s`
  /// of its schedule; the rest count in `*timeouts`.
  std::vector<double> Freshness(double timeout_s, size_t* timeouts) const {
    std::vector<double> out;
    *timeouts = 0;
    for (size_t i = 0; i < scheduled_.size(); ++i) {
      const double delay = visible_[i] - scheduled_[i];
      if (!seen(i) || delay > timeout_s) {
        ++*timeouts;
      } else {
        out.push_back(delay);
      }
    }
    return out;
  }

 private:
  static constexpr double kUnseen = -1.0;
  std::vector<double> scheduled_;
  std::vector<double> visible_;
  size_t next_unseen_ = 0;
};

/// Distance between two doubles in units in the last place of `scale`
/// (the largest magnitude of the vector they come from): a bound that
/// stays meaningful for entries near zero, where a per-element ulp is
/// arbitrarily small.
inline double UlpsAtScale(double a, double b, double scale) {
  const double ulp =
      std::nextafter(std::max(std::fabs(scale),
                              std::numeric_limits<double>::min()),
                     std::numeric_limits<double>::infinity()) -
      std::max(std::fabs(scale), std::numeric_limits<double>::min());
  return std::fabs(a - b) / ulp;
}

/// Bitwise equality (distinguishes -0.0 from 0.0, equates equal NaNs).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
