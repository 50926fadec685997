// Reproduces the §4.2 view claims: (1) view unfolding + source-access
// elimination means "any unused information not be fetched at all", and
// (2) the view sub-optimizer's cached partially-optimized plans factor
// the query-independent work out of compilation ("performed once and
// then reused when compiling each query that uses the view").

#include <benchmark/benchmark.h>

#include "server/server.h"
#include "tests/test_fixtures.h"

namespace {

using namespace aldsp;
using server::DataServicePlatform;

constexpr const char* kViewModule = R"(
declare function tns:profiles() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P>
    <CID>{fn:data($c/CID)}</CID>
    <NAME>{fn:data($c/LAST_NAME)}</NAME>
    <ORDERS>{ns3:getORDER($c)}</ORDERS>
  </P>
};
)";

std::unique_ptr<DataServicePlatform> MakePlatform(bool optimize,
                                                  bool pushdown = false) {
  auto platform = std::make_unique<DataServicePlatform>();
  platform->options().enable_optimizer = optimize;
  // Pushdown off isolates the optimizer's contribution; source latency
  // makes avoided fetches visible.
  platform->options().enable_pushdown = pushdown;
  auto db = std::shared_ptr<relational::Database>(
      testing::MakeCustomerDb(300, 3).release());
  db->latency_model().roundtrip_micros = 200;
  db->latency_model().sleep = true;
  (void)platform->RegisterRelationalSource("ns3", db, "oracle");
  (void)platform->LoadDataService(kViewModule);
  return platform;
}

// The query uses only CID through the view: with optimization the ORDERS
// branch (one navigation fetch per customer) is never executed.
constexpr const char* kPrunedQuery = "fn:data(tns:profiles()/CID)";

void BM_PrunedViewQuery(benchmark::State& state) {
  bool optimize = state.range(0) != 0;
  auto platform = MakePlatform(optimize);
  auto plan = platform->Prepare(kPrunedQuery);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  auto* db = platform->adaptors().FindDatabase("customer_db");
  for (auto _ : state) {
    db->stats().Reset();
    auto r = platform->ExecutePlan(**plan);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r->size());
  }
  state.SetLabel(optimize ? "optimized" : "naive");
  state.counters["source_statements"] =
      static_cast<double>(db->stats().statements.load());
}

BENCHMARK(BM_PrunedViewQuery)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// The §4.2 keyed read, tns:getProfileByID's shape: a predicate on the
// view's constructed CID child. Optimized, it reaches the CUSTOMER scan
// (view unfolding, predicate hoisting past the construction, SQL
// pushdown), so one profile is built; naive, every profile is built and
// its orders fetched before the filter runs.
constexpr const char* kKeyedQuery = "tns:profiles()[CID eq \"CUST003\"]";

void BM_KeyedViewRead(benchmark::State& state) {
  bool optimize = state.range(0) != 0;
  auto platform = MakePlatform(optimize, /*pushdown=*/true);
  auto plan = platform->Prepare(kKeyedQuery);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  auto* db = platform->adaptors().FindDatabase("customer_db");
  for (auto _ : state) {
    db->stats().Reset();
    auto r = platform->ExecutePlan(**plan);
    if (!r.ok() || r->size() != 1) {
      state.SkipWithError("keyed read did not return one profile");
      return;
    }
    benchmark::DoNotOptimize(r->front());
  }
  state.SetLabel(optimize ? "optimized" : "naive");
  state.counters["source_statements"] =
      static_cast<double>(db->stats().statements.load());
}

BENCHMARK(BM_KeyedViewRead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// Compilation cost with and without the view plan cache: the first
// compile optimizes the view body; subsequent compiles of *different*
// queries over the same view reuse the cached partial plan.
void BM_CompileOverView(benchmark::State& state) {
  bool use_cache = state.range(0) != 0;
  auto platform = MakePlatform(true);
  int i = 0;
  for (auto _ : state) {
    if (!use_cache) platform->view_plan_cache().Clear();
    // A fresh query string each time defeats the *plan* cache so the
    // view sub-optimizer's contribution is isolated.
    std::string q = "subsequence(fn:data(tns:profiles()/CID), " +
                    std::to_string(++i) + ", 5)";
    auto plan = platform->Prepare(q);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    benchmark::DoNotOptimize(plan->get());
  }
  state.SetLabel(use_cache ? "view-plan-cache" : "no-view-cache");
  state.counters["view_cache_hits"] =
      static_cast<double>(platform->view_plan_cache().hits());
}

BENCHMARK(BM_CompileOverView)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
