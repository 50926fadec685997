#ifndef ALDSP_PERFBENCH_ENV_H_
#define ALDSP_PERFBENCH_ENV_H_

// One platform over the paper's running example (§3.4 / Figure 3), built
// the way a deployment would: two relational databases, the credit-rating
// web service, the int2date/date2int external functions and the profile
// data service. The web-service and external-function callbacks are the
// driver's own, so it can count calls and time them as spans.

#include <atomic>
#include <memory>
#include <string>

#include "bench_lib.h"
#include "server/server.h"

namespace aldsp::perfbench {

struct EnvOptions {
  int customers = 100;
  /// Latency model applied to both databases.
  int64_t roundtrip_micros = 0;
  int64_t per_row_micros = 0;
  /// false: latency is counted (virtual time) but not slept.
  bool sleep = false;
  /// The reference configuration: no optimizer, no SQL pushdown.
  bool reference = false;
};

/// Where a ws_call / external_call span goes while a traced op runs.
/// Callbacks may run on pool threads, so the fields are atomics; the
/// traced pass runs one op at a time, so one current parent suffices.
struct CallTracer {
  std::atomic<SpanRecorder*> recorder{nullptr};
  std::atomic<int> parent{-1};
  std::atomic<int64_t> op{0};
};

class Env {
 public:
  explicit Env(const EnvOptions& options);
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  server::DataServicePlatform& platform() { return *platform_; }
  relational::Database& customer_db() { return *customer_db_; }
  relational::Database& billing_db() { return *billing_db_; }
  const EnvOptions& options() const { return options_; }

  std::atomic<int64_t> ws_calls{0};
  std::atomic<int64_t> external_calls{0};
  CallTracer tracer;

 private:
  EnvOptions options_;
  std::shared_ptr<relational::Database> customer_db_;
  std::shared_ptr<relational::Database> billing_db_;
  // Declared last so it is destroyed first: its adaptors hold callbacks
  // that point at the counters above.
  std::unique_ptr<server::DataServicePlatform> platform_;
};

}  // namespace aldsp::perfbench

#endif  // ALDSP_PERFBENCH_ENV_H_
