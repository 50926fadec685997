#ifndef ALDSP_PERFBENCH_WORKLOADS_H_
#define ALDSP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace aldsp::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the end-to-end run. true: the traced run reporting per-layer
  /// metrics and the tracing overhead.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The first few failed or incorrect ops, for the console.
  std::vector<std::string> failures;
  /// The metrics the final JSON line carries: the end-to-end set shared
  /// by every workload, or the per-layer set of a traced run.
  std::vector<Metric> metrics;
  /// Every metric the workload defines under its own name (write and
  /// time-to-first-row latencies, tails with their sample counts),
  /// printed above the JSON line.
  std::vector<Metric> report;
  /// Data sizes, client counts and other run facts for the stamp.
  std::map<std::string, std::string> facts;
  /// Driver-owned spans of a traced run.
  std::vector<Span> spans;
};

/// Runs one workload. Throws std::runtime_error when the platform cannot
/// be set up; failed or incorrect ops are counted in the result instead.
RunResult RunWorkload(const RunConfig& config);

}  // namespace aldsp::perfbench

#endif  // ALDSP_PERFBENCH_WORKLOADS_H_
