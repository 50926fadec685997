// The repository benchmark driver. One run executes one workload for a
// fixed time and prints, last, one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set from a traced pass (see perfbench/NOTES.md). Above that
// line it prints every workload metric by name with its unit, the first
// failures, and a stamp line identifying the build and the run.
//
//   perfbench_driver --workload profile_rw --seed 1 --seconds 10 --trace 0
//       [--git-sha SHA] [--source-digest HEX] [--out DIR]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using aldsp::perfbench::JsonEscape;
using aldsp::perfbench::Metric;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--source-digest HEX] [--out DIR]\n");
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendQuoted(std::string* out, const std::string& s) {
  *out += '"';
  *out += JsonEscape(s);
  *out += '"';
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out(1, '{');
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    AppendQuoted(&out, metrics[i].name);
    out += ": {\"value\": ";
    out += Number(metrics[i].value);
    out += ", \"unit\": ";
    AppendQuoted(&out, metrics[i].unit);
    out += '}';
  }
  out += '}';
  return out;
}

std::string ObjectJson(const std::map<std::string, std::string>& fields) {
  std::string out(1, '{');
  for (const auto& [k, v] : fields) {
    if (out.size() > 1) out += ", ";
    AppendQuoted(&out, k);
    out += ": ";
    AppendQuoted(&out, v);
  }
  out += '}';
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  aldsp::perfbench::RunConfig config;
  std::map<std::string, std::string> stamp;
  std::string out_dir;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--git-sha") {
      stamp["git_sha"] = value;
    } else if (arg == "--source-digest") {
      stamp["source_digest"] = value;
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed || config.seconds <= 0) {
    Usage();
    return 2;
  }

  aldsp::perfbench::RunResult r;
  try {
    r = aldsp::perfbench::RunWorkload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  stamp["workload"] = config.workload;
  stamp["seed"] = std::to_string(config.seed);
  stamp["seconds"] = Number(config.seconds);
  stamp["trace"] = config.trace ? "1" : "0";
  stamp["nproc"] = std::to_string(nproc);
  stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  stamp["compiler"] = PERFBENCH_COMPILER;
  for (const auto& [k, v] : r.facts) stamp[k] = v;

  for (const Metric& m : r.report) {
    std::printf("metric %-36s %14s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& f : r.failures) std::printf("failure %s\n", f.c_str());
  std::string stamp_json = ObjectJson(stamp);
  std::printf("stamp %s\n", stamp_json.c_str());

  const bool correct = r.failed == 0;
  std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) +
                       ", \"metrics\": " + MetricsJson(r.metrics) + "}";

  if (!out_dir.empty()) {
    std::string base = out_dir + "/" + config.workload + "-seed" +
                       std::to_string(config.seed) + "-trace" +
                       (config.trace ? "1" : "0");
    std::ofstream res(base + ".json");
    res << "{\"stamp\": " << stamp_json << ", \"report\": " << MetricsJson(r.report)
        << ", \"result\": " << result << "}\n";
    if (config.trace) {
      std::ofstream spans(base + "-spans.jsonl");
      for (const aldsp::perfbench::Span& s : r.spans) {
        spans << "{\"id\": " << s.id << ", \"parent\": " << s.parent
              << ", \"op\": " << s.op << ", \"name\": \"" << JsonEscape(s.name)
              << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
              << "}\n";
      }
    }
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
