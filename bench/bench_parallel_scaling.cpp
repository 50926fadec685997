// Measures intra-query parallelism end to end on the running example.
//
// Workload A (partitioned join): CUSTOMER joins ORDER through a PP-k
// fetch, the result probes CREDIT_CARD through an index-nested-loop join
// whose residual calls the simulated credit-rating web service (~2ms per
// probe). Three modes per worker count: serial (dop=1), exchange (the
// planner partitions the INL probe across the worker pool) and
// exchange+deep-prefetch (additionally the PP-k pipeline depth adapts to
// the observed 5ms round trip instead of classic double buffering).
//
// Workload B (deep prefetch isolation): the PP-k join alone against a
// 5ms-round-trip source with a fast consumer, double-buffered (depth 1)
// vs adaptive depth — the paper's round-trips-vs-memory tradeoff, now
// with a deeper pipeline.
//
// Every cell checks results stay byte-identical to the serial run;
// timings land in BENCH_parallel_scaling.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/analyzer.h"
#include "optimizer/optimizer.h"
#include "runtime/evaluator.h"
#include "runtime/observed_cost.h"
#include "runtime/worker_pool.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace {

using aldsp::testing::RunningExample;
using namespace aldsp;

constexpr int kCustomers = 240;
constexpr int64_t kRoundTripMicros = 5000;
constexpr int64_t kRatingLatencyMillis = 2;
constexpr int kPpkBlock = 10;

// CUSTOMER x ORDER x CREDIT_CARD; the rating conjunct references $cc so
// it survives past both joins (it becomes the probe-side residual below).
constexpr const char* kCombinedQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $o/CID and $cc/CID eq $c/CID and "
    "fn:data(ns4:getRating(<ns5:getRating><ns5:lName>{fn:data($cc/CCN)}"
    "</ns5:lName><ns5:ssn>s</ns5:ssn></ns5:getRating>)/ns5:getRatingResult) "
    "gt 0 "
    "return <R><O>{fn:data($o/OID)}</O><CC>{fn:data($cc/CCN)}</CC></R>";

constexpr const char* kPpkOnlyQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "where $c/CID eq $o/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>";

xquery::ExprPtr Compile(RunningExample& env, const char* query) {
  auto parsed = xquery::ParseExpression(query);
  xquery::ExprPtr e = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  (void)analyzer.Analyze(e, {});
  optimizer::OptimizerOptions options;
  options.ppk_k = kPpkBlock;
  options.cross_source_method = xquery::JoinMethod::kPPkIndexNestedLoop;
  options.convert_ppk = true;
  optimizer::Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  (void)opt.Optimize(e);
  return e;
}

// Shapes the combined plan: the ORDER join stays PP-k, the CREDIT_CARD
// join becomes an INL probe carrying the web-service conjunct as its
// residual condition, and cardinality annotations (what the observed-cost
// post-pass would stamp after a warm-up run) make the probe partition.
void ShapeCombinedPlan(xquery::Expr& flwor) {
  int join_index = 0;
  for (auto& cl : flwor.clauses) {
    if (cl.kind == xquery::Clause::Kind::kFor) cl.estimated_rows = 100000;
    if (cl.kind != xquery::Clause::Kind::kJoin) continue;
    cl.estimated_rows = 100000;
    if (join_index++ == 0) {
      cl.method = xquery::JoinMethod::kPPkIndexNestedLoop;
      cl.ppk_block_size = kPpkBlock;
    } else {
      cl.method = xquery::JoinMethod::kIndexNestedLoop;
      cl.ppk_fetch.reset();
    }
  }
  // The rating predicate survived join introduction as a trailing where;
  // fold it into the last join so it runs inside the (parallel) probe.
  for (size_t i = 0; i < flwor.clauses.size(); ++i) {
    if (flwor.clauses[i].kind != xquery::Clause::Kind::kWhere) continue;
    for (size_t j = flwor.clauses.size(); j-- > 0;) {
      if (flwor.clauses[j].kind == xquery::Clause::Kind::kJoin) {
        flwor.clauses[j].condition = flwor.clauses[i].expr;
        break;
      }
    }
    flwor.clauses.erase(flwor.clauses.begin() +
                        static_cast<std::ptrdiff_t>(i));
    break;
  }
}

double TimedRun(RunningExample& env, const xquery::Expr& plan,
                std::string* serialized) {
  auto t0 = std::chrono::steady_clock::now();
  auto result = runtime::Evaluate(plan, env.ctx);
  auto t1 = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "bench: %s\n", result.status().ToString().c_str());
    return -1;
  }
  *serialized = xml::SerializeSequence(*result);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct ScalingRow {
  int workers = 0;
  double serial_ms = 0;
  double exchange_ms = 0;
  double exchange_deep_ms = 0;
};

struct PrefetchRow {
  int k = 0;
  int depth = 0;
  double double_buffer_ms = 0;
  double deep_ms = 0;
};

std::vector<ScalingRow>& ScalingRows() {
  static std::vector<ScalingRow> rows;
  return rows;
}

std::vector<PrefetchRow>& PrefetchRows() {
  static std::vector<PrefetchRow> rows;
  return rows;
}

void BM_PartitionedJoin(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  RunningExample env(kCustomers, 3);
  runtime::WorkerPool pool(12);
  env.ctx.pool = &pool;
  env.customer_db->latency_model().roundtrip_micros = kRoundTripMicros;
  env.customer_db->latency_model().per_row_micros = 2;
  env.customer_db->latency_model().sleep = true;
  env.rating_ws->SetLatency("ns4:getRating", kRatingLatencyMillis);
  xquery::ExprPtr plan = Compile(env, kCombinedQuery);
  ShapeCombinedPlan(*plan);

  // A warm observed-cost model (what production accumulates from earlier
  // runs) drives the adaptive prefetch depth in the deep mode.
  runtime::ObservedCostModel observed;
  for (int i = 0; i < 20; ++i) {
    observed.RecordStatementSplit(env.customer_db->name(), kRoundTripMicros,
                                  30, 15);
  }

  ScalingRow row;
  row.workers = workers;
  std::string serial_out, exchange_out, deep_out;
  for (auto _ : state) {
    env.ctx.max_query_dop = 1;
    env.ctx.ppk_prefetch_depth = 1;
    env.ctx.observed = nullptr;
    row.serial_ms = TimedRun(env, *plan, &serial_out);

    env.ctx.max_query_dop = workers;
    row.exchange_ms = TimedRun(env, *plan, &exchange_out);

    env.ctx.ppk_prefetch_depth = 0;  // adaptive
    env.ctx.observed = &observed;
    row.exchange_deep_ms = TimedRun(env, *plan, &deep_out);
    env.ctx.observed = nullptr;
  }
  if (serial_out != exchange_out || serial_out != deep_out) {
    state.SkipWithError("parallel result differs from serial");
    return;
  }
  ScalingRows().push_back(row);
  state.counters["workers"] = workers;
  state.counters["serial_ms"] = row.serial_ms;
  state.counters["exchange_ms"] = row.exchange_ms;
  state.counters["exchange_deep_ms"] = row.exchange_deep_ms;
  state.counters["speedup"] =
      row.exchange_ms > 0 ? row.serial_ms / row.exchange_ms : 0;
}

BENCHMARK(BM_PartitionedJoin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_DeepPrefetch(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  RunningExample env(200, 3);
  runtime::WorkerPool pool(12);
  env.ctx.pool = &pool;
  env.customer_db->latency_model().roundtrip_micros = kRoundTripMicros;
  env.customer_db->latency_model().per_row_micros = 2;
  env.customer_db->latency_model().sleep = true;
  xquery::ExprPtr plan = Compile(env, kPpkOnlyQuery);
  for (auto& cl : plan->clauses) {
    if (cl.kind == xquery::Clause::Kind::kJoin) {
      cl.method = xquery::JoinMethod::kPPkIndexNestedLoop;
      cl.ppk_block_size = k;
    }
  }

  runtime::ObservedCostModel observed;
  for (int i = 0; i < 20; ++i) {
    observed.RecordStatementSplit(env.customer_db->name(), kRoundTripMicros,
                                  30, 15);
  }

  PrefetchRow row;
  row.k = k;
  row.depth = observed.AdvisePrefetchDepth(env.customer_db->name(), k);
  std::string base_out, deep_out;
  for (auto _ : state) {
    env.ctx.ppk_prefetch_depth = 1;  // classic double buffer
    env.ctx.observed = nullptr;
    row.double_buffer_ms = TimedRun(env, *plan, &base_out);

    env.ctx.ppk_prefetch_depth = 0;  // adaptive
    env.ctx.observed = &observed;
    row.deep_ms = TimedRun(env, *plan, &deep_out);
    env.ctx.observed = nullptr;
  }
  if (base_out != deep_out) {
    state.SkipWithError("deep prefetch result differs from double buffer");
    return;
  }
  PrefetchRows().push_back(row);
  state.counters["k"] = k;
  state.counters["depth"] = row.depth;
  state.counters["double_buffer_ms"] = row.double_buffer_ms;
  state.counters["deep_ms"] = row.deep_ms;
  state.counters["speedup"] =
      row.deep_ms > 0 ? row.double_buffer_ms / row.deep_ms : 0;
}

BENCHMARK(BM_DeepPrefetch)
    ->Arg(10)
    ->Arg(20)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void WriteJson() {
  const char* path = "BENCH_parallel_scaling.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"parallel_scaling\",%s,\"customers\":%d,"
               "\"roundtrip_us\":%lld,\"rating_ms\":%lld,"
               "\"partitioned_join\":[",
               bench::ExportStamp().c_str(), kCustomers,
               static_cast<long long>(kRoundTripMicros),
               static_cast<long long>(kRatingLatencyMillis));
  for (size_t i = 0; i < ScalingRows().size(); ++i) {
    const ScalingRow& r = ScalingRows()[i];
    std::fprintf(f,
                 "%s{\"workers\":%d,\"serial_ms\":%.3f,\"exchange_ms\":%.3f,"
                 "\"exchange_deep_ms\":%.3f,\"speedup\":%.3f,"
                 "\"speedup_deep\":%.3f}",
                 i == 0 ? "" : ",", r.workers, r.serial_ms, r.exchange_ms,
                 r.exchange_deep_ms,
                 r.exchange_ms > 0 ? r.serial_ms / r.exchange_ms : 0,
                 r.exchange_deep_ms > 0 ? r.serial_ms / r.exchange_deep_ms
                                        : 0);
  }
  std::fprintf(f, "],\"deep_prefetch\":[");
  for (size_t i = 0; i < PrefetchRows().size(); ++i) {
    const PrefetchRow& r = PrefetchRows()[i];
    std::fprintf(f,
                 "%s{\"k\":%d,\"depth\":%d,\"double_buffer_ms\":%.3f,"
                 "\"deep_ms\":%.3f,\"speedup\":%.3f}",
                 i == 0 ? "" : ",", r.k, r.depth, r.double_buffer_ms,
                 r.deep_ms, r.deep_ms > 0 ? r.double_buffer_ms / r.deep_ms : 0);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("parallel scaling grid written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteJson();
  return 0;
}
