// Reads the ingest spans a Tracer recorded back into per-stage numbers.
//
// The serve layer's spans carry no drain id, but each thread runs its
// stages in order: the coordinator thread emits one "ingest.drain_coalesce"
// and one "ingest.pipeline.prepare" per drain, and every shard executor
// thread one "ingest.apply_slice" per drain. The k-th of each therefore
// belongs to drain k of the ingestor those threads serve.

#ifndef PERFBENCH_TRACE_REPORT_H_
#define PERFBENCH_TRACE_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;

  double end_us() const { return ts_us + dur_us; }
};

/// Parses the Chrome trace_event JSON that Tracer::WriteJson emits.
std::vector<SpanEvent> ParseTraceJson(const std::string& json);

/// Durations (µs) of every span called `name`.
std::vector<double> DurationsUs(const std::vector<SpanEvent>& events,
                                const std::string& name);

/// Durations (µs) of spans called `name` on threads that also emitted a
/// span called `thread_marker` (e.g. refreshes on coordinator threads
/// only, not the one inside Start()).
std::vector<double> DurationsOnThreadsUs(const std::vector<SpanEvent>& events,
                                         const std::string& name,
                                         const std::string& thread_marker);

/// Total duration (µs) of spans called `name`, per emitting thread.
std::map<uint32_t, double> TotalPerThreadUs(
    const std::vector<SpanEvent>& events, const std::string& name);

/// Per drain: the share of its wall time — first coalesce start to the
/// end of its last-finishing shard slice — covered by its critical-path
/// stages (coalesce, prepare, and that last slice). The rest is hand-off
/// and queueing that no stage accounts for.
std::vector<double> DrainCoverage(const std::vector<SpanEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_REPORT_H_
