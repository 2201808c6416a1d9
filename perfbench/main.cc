// perfbench — runs one benchmark workload and prints its metrics.
//
//   perfbench --workload offline-activeiter|serve-steady|serve-burst
//             --seed N --seconds S --trace 0|1
//
// Human-readable lines first (every metric with its unit and sample
// count, then any failed correctness check), and as the last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
// are those the workload measured; run.py checks them against
// BENCHMARK.json, the one list of names and units. Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag without value: " << arg << "\n";
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") return false;
      options->trace = v == "1";
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
  }
  return have_workload;
}

void PrintReport(const RunOptions& options, const Report& report) {
  std::printf("workload %s seed %llu seconds %.3g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const Metric& m : report.metrics) {
    std::printf("  %-36s %18.6f %-6s samples %-10llu%s\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples),
                m.resolved ? "" : " (fewer than 10 samples beyond)");
  }
  std::printf("  attempted %llu failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& e : report.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  perfbench::Report report;
  if (options.workload == "offline-activeiter") {
    report = perfbench::RunOffline(options);
  } else if (options.workload == "serve-steady") {
    report = perfbench::RunServeSteady(options);
  } else if (options.workload == "serve-burst") {
    report = perfbench::RunServeBurst(options);
  } else {
    std::cerr << "unknown workload: " << options.workload << "\n";
    return 2;
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  perfbench::PrintReport(options, report);
  return report.correct ? 0 : 1;
}
