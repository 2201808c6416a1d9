#include "trace_report.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

namespace perfbench {
namespace {

constexpr char kCoalesce[] = "ingest.drain_coalesce";
constexpr char kPrepare[] = "ingest.pipeline.prepare";
constexpr char kSlice[] = "ingest.apply_slice";

/// Spans called `name`, grouped by thread, each group in start order.
std::map<uint32_t, std::vector<const SpanEvent*>> ByThread(
    const std::vector<SpanEvent>& events, const std::string& name) {
  std::map<uint32_t, std::vector<const SpanEvent*>> out;
  for (const SpanEvent& e : events) {
    if (e.name == name) out[e.tid].push_back(&e);
  }
  for (auto& [tid, spans] : out) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                return a->ts_us < b->ts_us;
              });
  }
  return out;
}

}  // namespace

std::vector<SpanEvent> ParseTraceJson(const std::string& json) {
  std::vector<SpanEvent> events;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    char name[128] = {0};
    SpanEvent e;
    unsigned tid = 0;
    if (std::sscanf(line.c_str(),
                    " {\"name\": \"%127[^\"]\", \"cat\": \"%*[^\"]\", "
                    "\"ph\": \"X\", \"ts\": %lf, \"dur\": %lf, \"pid\": %*d, "
                    "\"tid\": %u}",
                    name, &e.ts_us, &e.dur_us, &tid) == 4) {
      e.name = name;
      e.tid = tid;
      events.push_back(std::move(e));
    }
  }
  return events;
}

std::vector<double> DurationsUs(const std::vector<SpanEvent>& events,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanEvent& e : events) {
    if (e.name == name) out.push_back(e.dur_us);
  }
  return out;
}

std::vector<double> DurationsOnThreadsUs(const std::vector<SpanEvent>& events,
                                         const std::string& name,
                                         const std::string& thread_marker) {
  std::set<uint32_t> threads;
  for (const SpanEvent& e : events) {
    if (e.name == thread_marker) threads.insert(e.tid);
  }
  std::vector<double> out;
  for (const SpanEvent& e : events) {
    if (e.name == name && threads.count(e.tid) != 0) out.push_back(e.dur_us);
  }
  return out;
}

std::map<uint32_t, double> TotalPerThreadUs(
    const std::vector<SpanEvent>& events, const std::string& name) {
  std::map<uint32_t, double> out;
  for (const SpanEvent& e : events) {
    if (e.name == name) out[e.tid] += e.dur_us;
  }
  return out;
}

std::vector<double> DrainCoverage(const std::vector<SpanEvent>& events) {
  const auto coalesces = ByThread(events, kCoalesce);
  const auto prepares = ByThread(events, kPrepare);
  const auto slices = ByThread(events, kSlice);
  // Ingestors run one after another, so an executor thread belongs to the
  // coordinator that started last before the executor's first slice.
  std::map<uint32_t, std::vector<const std::vector<const SpanEvent*>*>>
      executors_of;
  for (const auto& [tid, spans] : slices) {
    uint32_t owner = 0;
    double owner_begin = -1.0;
    for (const auto& [coordinator, drains] : coalesces) {
      const double begin = drains.front()->ts_us;
      if (begin <= spans.front()->ts_us && begin > owner_begin) {
        owner = coordinator;
        owner_begin = begin;
      }
    }
    if (owner_begin >= 0.0) executors_of[owner].push_back(&spans);
  }
  std::vector<double> coverage;
  for (const auto& [coordinator, drains] : coalesces) {
    auto prepared = prepares.find(coordinator);
    if (prepared == prepares.end()) continue;
    const auto& executors = executors_of[coordinator];
    if (executors.empty()) continue;
    const size_t n = std::min(drains.size(), prepared->second.size());
    for (size_t k = 0; k < n; ++k) {
      const SpanEvent* last = nullptr;
      for (const auto* spans : executors) {
        if (k >= spans->size()) continue;
        const SpanEvent* s = (*spans)[k];
        if (last == nullptr || s->end_us() > last->end_us()) last = s;
      }
      if (last == nullptr) continue;
      const double wall = last->end_us() - drains[k]->ts_us;
      if (wall <= 0.0) continue;
      coverage.push_back((drains[k]->dur_us + prepared->second[k]->dur_us +
                          last->dur_us) /
                         wall);
    }
  }
  return coverage;
}

}  // namespace perfbench
