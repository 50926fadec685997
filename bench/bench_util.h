#ifndef ALDSP_BENCH_BENCH_UTIL_H_
#define ALDSP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "tests/test_fixtures.h"

namespace aldsp::bench {

/// Builds a platform over a generated customer database with a
/// configurable source latency model (round-trip cost per statement and
/// per-row transfer cost) — the knobs that drive the paper's distributed
/// tradeoffs.
inline std::unique_ptr<server::DataServicePlatform> MakePlatform(
    int customers, int max_orders, int64_t roundtrip_micros,
    int64_t per_row_micros, bool sleep = true,
    const std::string& vendor = "oracle") {
  auto platform = std::make_unique<server::DataServicePlatform>();
  auto db = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCustomerDb(customers, max_orders).release());
  db->latency_model().roundtrip_micros = roundtrip_micros;
  db->latency_model().per_row_micros = per_row_micros;
  db->latency_model().sleep = sleep;
  (void)platform->RegisterRelationalSource("ns3", db, vendor);
  return platform;
}

inline relational::Database* CustomerDb(server::DataServicePlatform& p) {
  return p.adaptors().FindDatabase("customer_db");
}

/// Writes the platform's metrics snapshot (counters + per-source latency
/// histograms) to BENCH_<name>.json in the working directory, so bench
/// runs leave a machine-readable artifact next to the console output.
inline void WriteBenchMetrics(server::DataServicePlatform& platform,
                              const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = platform.MetricsJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("metrics snapshot written to %s\n", path.c_str());
}

/// Median, minimum and spread (max - min) of repeated measurements.
struct RepStats {
  double median = 0;
  double min = 0;
  double spread = 0;
};

inline RepStats Summarize(std::vector<double> samples) {
  RepStats s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  s.min = samples.front();
  s.spread = samples.back() - samples.front();
  return s;
}

/// The commit the bench binary measures: `git describe` of the source
/// tree it was built from, "-dirty" when the tree had local changes.
inline std::string GitDescribe() {
  std::string cmd = std::string("git -C \"") + ALDSP_SOURCE_DIR +
                    "\" describe --always --dirty --abbrev=40 2>/dev/null";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return "unknown";
  std::string out;
  char buf[128];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
  pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// JSON members stamped into every BENCH_*.json export (without braces),
/// so each figure names the core count, build type and commit behind it.
inline std::string ExportStamp() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"nproc\":%u,\"build_type\":\"%s\",\"git_sha\":\"%s\"",
                std::thread::hardware_concurrency(), ALDSP_BUILD_TYPE,
                GitDescribe().c_str());
  return buf;
}

}  // namespace aldsp::bench

#endif  // ALDSP_BENCH_BENCH_UTIL_H_
