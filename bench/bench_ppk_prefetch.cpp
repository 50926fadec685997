// Measures the PP-k block prefetcher (double buffering): the runtime
// overlaps the next parameter block's round trip with mid-tier
// consumption of the current block, so per-block wall clock approaches
// max(round_trip, consumption) instead of their sum. The grid sweeps
// block size x simulated round-trip latency with a fixed per-item
// consumption cost in the streaming sink, at the default batch width.
// Each cell streams kReps rotating rounds of three modes: baseline (no
// prefetch), prefetch (the classic double buffer, depth 1) and adaptive
// (depth advised by an ObservedCostModel that one unpinned stream
// warmed, and that every adaptive stream keeps feeding). Each round
// records total stream time and time to first row (ttfr); every run is
// checked byte-identical to the first baseline. BENCH_ppk_prefetch.json
// gets the median, min and spread (max - min) of each timing, the
// median of the per-round speedups over baseline, the advised depth,
// and the nproc/build/commit stamp.

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
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace {

using aldsp::testing::RunningExample;
using namespace aldsp;

constexpr const char* kJoinQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "where $c/CID eq $o/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>";

constexpr int kCustomers = 200;
constexpr int64_t kConsumeMicrosPerItem = 40;

xquery::ExprPtr PlanWithK(RunningExample& env, int k) {
  auto parsed = xquery::ParseExpression(kJoinQuery);
  xquery::ExprPtr e = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  (void)analyzer.Analyze(e, {});
  optimizer::OptimizerOptions options;
  options.ppk_k = k;
  options.cross_source_method = xquery::JoinMethod::kPPkIndexNestedLoop;
  options.convert_ppk = true;
  optimizer::Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  (void)opt.Optimize(e);
  for (auto& cl : e->clauses) {
    if (cl.kind == xquery::Clause::Kind::kJoin) {
      cl.method = xquery::JoinMethod::kPPkIndexNestedLoop;
      cl.ppk_block_size = k;
    }
  }
  return e;
}

constexpr int kReps = 5;

struct GridRow {
  int k = 0;
  int64_t roundtrip_us = 0;
  int64_t blocks = 0;
  int adaptive_depth = 0;  // advised after the warming stream
  bench::RepStats baseline_ms;
  bench::RepStats prefetch_ms;
  bench::RepStats adaptive_ms;
  bench::RepStats baseline_ttfr_ms;
  bench::RepStats prefetch_ttfr_ms;
  bench::RepStats adaptive_ttfr_ms;
  double speedup = 0;           // median over rounds of baseline / prefetch
  double adaptive_speedup = 0;  // median over rounds of baseline / adaptive
};

std::vector<GridRow>& Rows() {
  static std::vector<GridRow> rows;
  return rows;
}

struct StreamTiming {
  double ms = -1;       // whole stream
  double ttfr_ms = -1;  // until the sink receives the first item
};

// Streams the plan with a fixed per-item consumption cost (the mid-tier
// or client working on the current block) and returns the wall-clock
// timings plus the serialized result for the identity check.
StreamTiming TimedStream(RunningExample& env, const xquery::Expr& plan,
                         std::string* serialized) {
  serialized->clear();
  StreamTiming timing;
  auto t0 = std::chrono::steady_clock::now();
  auto since_t0 = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  Status s = runtime::EvaluateStream(plan, env.ctx, [&](const xml::Item& item) {
    if (timing.ttfr_ms < 0) timing.ttfr_ms = since_t0();
    std::this_thread::sleep_for(
        std::chrono::microseconds(kConsumeMicrosPerItem));
    *serialized += xml::SerializeSequence(xml::Sequence{item});
    return Status::OK();
  });
  double total = since_t0();
  if (!s.ok()) {
    std::fprintf(stderr, "bench: %s\n", s.ToString().c_str());
    return StreamTiming{};
  }
  timing.ms = total;
  return timing;
}

void BM_PPkPrefetch(benchmark::State& state) {
  int64_t roundtrip = state.range(0);
  int k = static_cast<int>(state.range(1));
  RunningExample env(kCustomers, 3);
  env.customer_db->latency_model().roundtrip_micros = roundtrip;
  env.customer_db->latency_model().per_row_micros = 2;
  env.customer_db->latency_model().sleep = true;
  xquery::ExprPtr plan = PlanWithK(env, k);

  GridRow row;
  row.k = k;
  row.roundtrip_us = roundtrip;
  // Modes: 0 baseline, 1 prefetch at depth 1, 2 adaptive (depth 0 with
  // the observed-cost model attached).
  runtime::ObservedCostModel observed;
  auto set_mode = [&](int mode) {
    env.ctx.ppk_prefetch = mode != 0;
    env.ctx.ppk_prefetch_depth = mode == 1 ? 1 : 0;
    env.ctx.observed = mode == 2 ? &observed : nullptr;
  };
  std::vector<double> ms[3], ttfr[3], speedups, adaptive_speedups;
  for (auto _ : state) {
    std::string reference, out;
    set_mode(0);
    env.stats.Reset();
    TimedStream(env, *plan, &reference);  // warm-up, also the reference
    row.blocks = env.stats.ppk_blocks.load();
    set_mode(2);
    TimedStream(env, *plan, &out);  // warms the observed-cost model
    row.adaptive_depth =
        observed.AdvisePrefetchDepth(env.customer_db->name(), k);
    for (int rep = 0; rep < kReps; ++rep) {
      StreamTiming round[3];
      // Rotate which mode runs first so drift hits every side.
      for (int i = 0; i < 3; ++i) {
        int mode = (i + rep) % 3;
        set_mode(mode);
        round[mode] = TimedStream(env, *plan, &out);
        if (round[mode].ms < 0 || out != reference) {
          state.SkipWithError("prefetch result differs from baseline");
          return;
        }
      }
      for (int mode = 0; mode < 3; ++mode) {
        ms[mode].push_back(round[mode].ms);
        ttfr[mode].push_back(round[mode].ttfr_ms);
      }
      speedups.push_back(round[0].ms / round[1].ms);
      adaptive_speedups.push_back(round[0].ms / round[2].ms);
    }
  }
  row.baseline_ms = bench::Summarize(ms[0]);
  row.prefetch_ms = bench::Summarize(ms[1]);
  row.adaptive_ms = bench::Summarize(ms[2]);
  row.baseline_ttfr_ms = bench::Summarize(ttfr[0]);
  row.prefetch_ttfr_ms = bench::Summarize(ttfr[1]);
  row.adaptive_ttfr_ms = bench::Summarize(ttfr[2]);
  row.speedup = bench::Summarize(speedups).median;
  row.adaptive_speedup = bench::Summarize(adaptive_speedups).median;
  Rows().push_back(row);
  state.counters["k"] = k;
  state.counters["roundtrip_us"] = static_cast<double>(roundtrip);
  state.counters["baseline_ms"] = row.baseline_ms.median;
  state.counters["prefetch_ms"] = row.prefetch_ms.median;
  state.counters["adaptive_ms"] = row.adaptive_ms.median;
  state.counters["adaptive_depth"] = row.adaptive_depth;
  state.counters["baseline_ttfr_ms"] = row.baseline_ttfr_ms.median;
  state.counters["prefetch_ttfr_ms"] = row.prefetch_ttfr_ms.median;
  state.counters["adaptive_ttfr_ms"] = row.adaptive_ttfr_ms.median;
  state.counters["speedup"] = row.speedup;
  state.counters["adaptive_speedup"] = row.adaptive_speedup;
}

// Round trips from sub-millisecond to the 5-10ms wide-area range the
// acceptance criterion targets; k around the paper's default of 20.
BENCHMARK(BM_PPkPrefetch)
    ->ArgsProduct({{500, 2000, 5000, 10000}, {10, 20, 50}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Emits `"<name>":median,"<name>_min":..,"<name>_spread":..`.
void PrintStats(std::FILE* f, const char* name, const bench::RepStats& s) {
  std::fprintf(f, "\"%s\":%.3f,\"%s_min\":%.3f,\"%s_spread\":%.3f", name,
               s.median, name, s.min, name, s.spread);
}

void WriteGrid() {
  const char* path = "BENCH_ppk_prefetch.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"ppk_prefetch\",%s,\"customers\":%d,"
               "\"consume_us_per_item\":%lld,\"reps\":%d,\"rows\":[",
               bench::ExportStamp().c_str(), kCustomers,
               static_cast<long long>(kConsumeMicrosPerItem), kReps);
  for (size_t i = 0; i < Rows().size(); ++i) {
    const GridRow& r = Rows()[i];
    std::fprintf(f,
                 "%s{\"k\":%d,\"roundtrip_us\":%lld,\"blocks\":%lld,"
                 "\"adaptive_depth\":%d,",
                 i == 0 ? "" : ",", r.k,
                 static_cast<long long>(r.roundtrip_us),
                 static_cast<long long>(r.blocks), r.adaptive_depth);
    PrintStats(f, "baseline_ms", r.baseline_ms);
    std::fputc(',', f);
    PrintStats(f, "prefetch_ms", r.prefetch_ms);
    std::fputc(',', f);
    PrintStats(f, "adaptive_ms", r.adaptive_ms);
    std::fputc(',', f);
    PrintStats(f, "baseline_ttfr_ms", r.baseline_ttfr_ms);
    std::fputc(',', f);
    PrintStats(f, "prefetch_ttfr_ms", r.prefetch_ttfr_ms);
    std::fputc(',', f);
    PrintStats(f, "adaptive_ttfr_ms", r.adaptive_ttfr_ms);
    std::fprintf(f, ",\"speedup\":%.3f,\"adaptive_speedup\":%.3f}",
                 r.speedup, r.adaptive_speedup);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("prefetch grid written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteGrid();
  return 0;
}
