// Measures the vectorized batch runtime's throughput as a function of
// batch width on three engine-bound workloads over the running example,
// plus one latency-bound PP-k join. For the engine-bound workloads
// source latency simulation is off and the source functions are served
// from a warmed function cache, so the numbers isolate per-row operator
// overhead rather than simulated network waits or per-run XML
// materialization of the source tables:
//
//   scan_project — a relational scan pushed through a deep pipeline of
//                  kernel-evaluable `let` projections and a literal
//                  filter: seven operators per row, so the per-operator
//                  dispatch that batching amortizes dominates at width 1.
//   scan_filter  — two cascaded scans with a `where` comparison kept as a
//                  FilterOp (analyzer-only compile, no join introduction):
//                  the filter kernel + selection vector over a cross
//                  product, the widest stream in the plan.
//   group_by     — an order scan grouped by a kernel-evaluable key.
//   ppk_stream   — the customer/order join as a PP-k join (k=20) against
//                  a source with slept 2 ms round trips: the workload
//                  whose time to first row depends on the join handing up
//                  each block as soon as it is joined.
//
// Each width runs the materializing driver (Evaluate) and the streaming
// driver (EvaluateStream); both must produce output byte-identical to
// width 1, which degenerates to row-at-a-time and is the baseline the
// speedup column divides by. Timings are the best of kReps runs and land
// in BENCH_batch_width.json as rows of {workload, batch_size, ms,
// speedup_vs_1, stream_ms, time_to_first_row_ms}, under the nproc/build/
// commit stamp.
//
// --smoke shrinks the data set and the width grid for CI gates.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/analyzer.h"
#include "optimizer/optimizer.h"
#include "runtime/evaluator.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace {

using aldsp::testing::RunningExample;
using namespace aldsp;

bool g_smoke = false;
constexpr int kReps = 5;

struct Workload {
  const char* name;
  const char* query;
  int customers;        // full-size data set
  int smoke_customers;  // --smoke data set
  int ppk_k = 0;        // > 0: optimize into a PP-k join over slept sources
};

constexpr int64_t kPPkRoundTripMicros = 2000;

const Workload kWorkloads[] = {
    {"scan_project",
     "for $c in ns3:CUSTOMER() "
     "let $id := $c/CID let $fn := $c/FIRST_NAME let $ln := $c/LAST_NAME "
     "where $ln eq \"Smith\" return $id",
     8000, 400},
    {"scan_filter",
     "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
     "where $c/CID eq $o/CID "
     "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>",
     300, 60},
    {"group_by",
     "for $o in ns3:ORDER() group $o as $p by $o/CID as $k "
     "return <G>{$k}{fn:count($p)}</G>",
     8000, 400},
    {"ppk_stream",
     "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
     "where $c/CID eq $o/CID "
     "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>",
     200, 60, /*ppk_k=*/20},
};

struct WidthRow {
  std::string workload;
  int batch_size = 0;
  double ms = 0;
  double speedup_vs_1 = 0;
  double stream_ms = 0;
  double time_to_first_row_ms = 0;
};

std::vector<WidthRow>& Rows() {
  static std::vector<WidthRow> rows;
  return rows;
}

// Analyzer-only compile for the engine-bound workloads: no optimizer
// pass, so the `where` clause lowers to a FilterOp instead of being
// folded into an introduced join. PP-k workloads run the optimizer with
// the join forced to PP-k INL at the workload's block size.
xquery::ExprPtr Compile(RunningExample& env, const Workload& w) {
  auto parsed = xquery::ParseExpression(w.query);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench: %s\n", parsed.status().ToString().c_str());
    return nullptr;
  }
  xquery::ExprPtr e = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  Status st = analyzer.Analyze(e, {});
  if (st.ok() && w.ppk_k > 0) {
    optimizer::OptimizerOptions options;
    options.cross_source_method = xquery::JoinMethod::kPPkIndexNestedLoop;
    options.ppk_k = w.ppk_k;
    optimizer::Optimizer opt(&env.functions, &env.schemas, nullptr, options);
    st = opt.Optimize(e);
    for (auto& cl : e->clauses) {
      if (cl.kind != xquery::Clause::Kind::kJoin) continue;
      cl.method = xquery::JoinMethod::kPPkIndexNestedLoop;
      cl.ppk_block_size = w.ppk_k;
    }
  }
  if (!st.ok()) {
    std::fprintf(stderr, "bench: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return e;
}

// Best-of-`reps` timings of one width through both drivers; false if a
// run fails or either driver's bytes differ from the first run's.
struct Timings {
  double ms = -1;
  double stream_ms = -1;
  double ttfr_ms = -1;
};

bool TimeWidth(int reps, RunningExample& env, const xquery::Expr& plan,
               std::string* serialized, Timings* best) {
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  auto keep_min = [](double* best_ms, double ms) {
    if (*best_ms < 0 || ms < *best_ms) *best_ms = ms;
  };
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    auto result = runtime::Evaluate(plan, env.ctx);
    keep_min(&best->ms, ms_since(t0));
    if (!result.ok()) {
      std::fprintf(stderr, "bench: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
    std::string out = xml::SerializeSequence(*result);
    if (serialized->empty()) *serialized = out;
    if (out != *serialized) return false;

    xml::Sequence streamed;
    double ttfr = -1;
    t0 = Clock::now();
    Status st = runtime::EvaluateStream(plan, env.ctx, [&](const xml::Item& it) {
      if (ttfr < 0) ttfr = ms_since(t0);
      streamed.push_back(it);
      return Status::OK();
    });
    keep_min(&best->stream_ms, ms_since(t0));
    keep_min(&best->ttfr_ms, ttfr);
    if (!st.ok()) {
      std::fprintf(stderr, "bench: %s\n", st.ToString().c_str());
      return false;
    }
    if (xml::SerializeSequence(streamed) != *serialized) return false;
  }
  return true;
}

void BM_BatchWidth(benchmark::State& state) {
  const Workload& w = kWorkloads[state.range(0)];
  RunningExample env(g_smoke ? w.smoke_customers : w.customers, 3);
  if (w.ppk_k > 0) {
    env.customer_db->latency_model().roundtrip_micros = kPPkRoundTripMicros;
    env.customer_db->latency_model().sleep = true;
  }
  xquery::ExprPtr plan = Compile(env, w);
  if (plan == nullptr) {
    state.SkipWithError("compile failed");
    return;
  }

  // Serve the source tables from the function cache: one materialization
  // at warm-up, cheap sequence handles afterwards, so the width sweep
  // measures the operator pipeline rather than node construction.
  env.cache.EnableFor("ns3:CUSTOMER", /*ttl_millis=*/3600000);
  env.cache.EnableFor("ns3:ORDER", /*ttl_millis=*/3600000);
  {
    auto warm = runtime::Evaluate(*plan, env.ctx);
    if (!warm.ok()) {
      state.SkipWithError("warm-up failed");
      return;
    }
  }

  std::vector<int> widths = g_smoke
                                ? std::vector<int>{1, 1024}
                                : std::vector<int>{1, 4, 16, 64, 256, 1024,
                                                   4096};
  const int reps = g_smoke ? 1 : kReps;

  for (auto _ : state) {
    std::string reference;
    double baseline_ms = 0;
    for (int width : widths) {
      env.ctx.batch_size = width;
      Timings t;
      if (!TimeWidth(reps, env, *plan, &reference, &t)) {
        state.SkipWithError("evaluation failed or batch width changed the "
                            "result bytes");
        return;
      }
      if (width == widths.front()) baseline_ms = t.ms;
      WidthRow row;
      row.workload = w.name;
      row.batch_size = width;
      row.ms = t.ms;
      row.speedup_vs_1 = t.ms > 0 ? baseline_ms / t.ms : 0;
      row.stream_ms = t.stream_ms;
      row.time_to_first_row_ms = t.ttfr_ms;
      Rows().push_back(row);
      std::printf(
          "  %-12s width=%-5d %8.3f ms  speedup_vs_1=%.2fx  stream %8.3f ms"
          "  first row %7.3f ms\n",
          w.name, width, t.ms, row.speedup_vs_1, t.stream_ms, t.ttfr_ms);
    }
    env.ctx.batch_size = 1024;
  }
  state.SetLabel(w.name);
}

BENCHMARK(BM_BatchWidth)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void WriteJson() {
  const char* path = "BENCH_batch_width.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"batch_width\",%s,\"smoke\":%s,\"reps\":%d,"
               "\"rows\":[",
               bench::ExportStamp().c_str(), g_smoke ? "true" : "false",
               g_smoke ? 1 : kReps);
  for (size_t i = 0; i < Rows().size(); ++i) {
    const WidthRow& r = Rows()[i];
    std::fprintf(f,
                 "%s{\"workload\":\"%s\",\"batch_size\":%d,\"ms\":%.3f,"
                 "\"speedup_vs_1\":%.3f,\"stream_ms\":%.3f,"
                 "\"time_to_first_row_ms\":%.3f}",
                 i == 0 ? "" : ",", r.workload.c_str(), r.batch_size, r.ms,
                 r.speedup_vs_1, r.stream_ms, r.time_to_first_row_ms);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("batch width grid written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before google-benchmark sees (and rejects) it.
  int out_argc = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      continue;
    }
    argv[out_argc++] = argv[i];
  }
  benchmark::Initialize(&out_argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteJson();
  return 0;
}
