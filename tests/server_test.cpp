#include <gtest/gtest.h>
#include <atomic>
#include <thread>

#include "server/explain.h"
#include "server/server.h"
#include "tests/test_fixtures.h"
#include "xml/serializer.h"

namespace aldsp::server {
namespace {

using aldsp::testing::MakeCustomerDb;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db =
        std::shared_ptr<relational::Database>(MakeCustomerDb(6, 3).release());
    customer_db_ = db.get();
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns3", db, "oracle").ok());
  }
  DataServicePlatform platform_;
  relational::Database* customer_db_ = nullptr;
};

TEST_F(ServerTest, ExecuteSimpleQuery) {
  auto r = platform_.Execute(
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST002\" "
      "return fn:data($c/LAST_NAME)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(xml::SerializeSequence(*r), "Lee");
}

TEST_F(ServerTest, PlanCacheAvoidsRecompilation) {
  const char* q = "fn:count(ns3:CUSTOMER())";
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  EXPECT_EQ(platform_.plan_cache_misses(), 1);
  EXPECT_EQ(platform_.plan_cache_hits(), 2);
  // A different query misses.
  ASSERT_TRUE(platform_.Execute("fn:count(ns3:ORDER())").ok());
  EXPECT_EQ(platform_.plan_cache_misses(), 2);
}

TEST_F(ServerTest, LoadingServicesInvalidatesPlanCache) {
  const char* q = "fn:count(ns3:CUSTOMER())";
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:n() as xs:integer "
                      "{ fn:count(ns3:CUSTOMER()) };")
                  .ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  EXPECT_EQ(platform_.plan_cache_misses(), 2);  // recompiled after load
}

TEST_F(ServerTest, CompilationPhaseTimingsRecorded) {
  auto plan = platform_.Prepare(
      "for $c in ns3:CUSTOMER() return <P>{fn:data($c/CID)}</P>");
  ASSERT_TRUE(plan.ok());
  EXPECT_GE((*plan)->parse_micros, 0);
  EXPECT_GE((*plan)->analyze_micros, 0);
  EXPECT_GE((*plan)->optimize_micros, 0);
  EXPECT_GE((*plan)->pushdown_micros, 0);
  EXPECT_EQ((*plan)->pushdown.regions_pushed, 1);
}

TEST_F(ServerTest, CalledFunctionsRecordedBeforeUnfolding) {
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:v() as element(CUSTOMER)* "
                      "{ ns3:CUSTOMER() };")
                  .ok());
  auto plan = platform_.Prepare("fn:count(tns:v())");
  ASSERT_TRUE(plan.ok());
  bool found = false;
  for (const auto& f : (*plan)->called_functions) {
    if (f == "tns:v") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ServerTest, ExecuteStreamDeliversItemsIncrementally) {
  int count = 0;
  Status st = platform_.ExecuteStream(
      "for $c in ns3:CUSTOMER() return <P>{fn:data($c/CID)}</P>",
      [&](const xml::Item& item) -> Status {
        ++count;
        if (!item.is_node()) return Status::Internal("expected node");
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(count, 6);
  // A sink error propagates.
  Status failed = platform_.ExecuteStream(
      "ns3:CUSTOMER()",
      [&](const xml::Item&) { return Status::Internal("stop"); });
  EXPECT_FALSE(failed.ok());
}

TEST_F(ServerTest, RecoveryLoadKeepsValidFunctions) {
  DiagnosticBag bag;
  Status st = platform_.LoadDataServiceWithRecovery(R"(
declare function tns:bad() as xs:integer { 1 + };
declare function tns:good() as xs:integer { 41 + 1 };
)",
                                                    &bag);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(bag.error_count(), 0u);
  auto r = platform_.Execute("tns:good()");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->front().atomic().AsInteger(), 42);
  // The broken function exists but is not executable.
  EXPECT_FALSE(platform_.Execute("tns:bad()").ok());
}

TEST_F(ServerTest, CompileErrorsSurfaceCleanly) {
  EXPECT_EQ(platform_.Execute("for $x in").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(platform_.Execute("$undefined").status().code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(
      platform_.Execute("for $c in ns3:CUSTOMER() return $c/NO_SUCH_COL")
          .status()
          .code(),
      StatusCode::kTypeError);
}

TEST_F(ServerTest, DisablingPushdownStillAnswersQueries) {
  platform_.options().enable_pushdown = false;
  const char* q =
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST003\" "
      "return fn:data($c/FIRST_NAME)";
  auto r = platform_.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xml::SerializeSequence(*r), "Dan");
  auto plan = platform_.Prepare(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->pushdown.regions_pushed, 0);
}

TEST_F(ServerTest, MediatorMethodCallWithCriteria) {
  // Paper §2.2: mediator clients attach result filtering and sorting
  // criteria to method calls; the criteria compose into the query and
  // benefit from pushdown like any hand-written predicate.
  ASSERT_TRUE(platform_
                  .LoadDataService(R"(
(::pragma function kind="read" ::)
declare function tns:byName($n as xs:string) as element(P)* {
  for $c in ns3:CUSTOMER() where $c/FIRST_NAME eq $n
  return <P><CID>{fn:data($c/CID)}</CID>
    <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME></P>
};)")
                  .ok());
  // Plain method call.
  auto plain = platform_.CallMethod("tns:byName", {"\"Ann\""});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->size(), 1u);  // customer 5 (i%5==0 -> "Ann")
  // With filter + sort criteria.
  DataServicePlatform::MethodCriteria criteria;
  criteria.filter_child = "CID";
  criteria.filter_op = "ne";
  criteria.filter_value = "CUST001";
  criteria.sort_child = "LAST_NAME";
  criteria.sort_descending = true;
  auto all = platform_.CallMethod("ns3:CUSTOMER", {}, criteria);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), 5u);  // 6 customers minus the filtered one
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_GE((*all)[i - 1].node()->FirstChildNamed("LAST_NAME")->StringValue(),
              (*all)[i].node()->FirstChildNamed("LAST_NAME")->StringValue());
  }
  // Criteria queries hit the plan cache on repetition.
  auto again = platform_.CallMethod("ns3:CUSTOMER", {}, criteria);
  ASSERT_TRUE(again.ok());
  EXPECT_GE(platform_.plan_cache_hits(), 1);
}

TEST_F(ServerTest, CriteriaOnViewChildReachSqlWhere) {
  // After view unfolding, a criteria call binds `for $mc_item` to the
  // view's constructor; as a let, its CID filter reaches the CUSTOMER
  // scan's WHERE, and the answer matches the unoptimized server's bytes.
  const char* service = R"(
(::pragma function kind="read" ::)
declare function tns:people() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P><CID>{fn:data($c/CID)}</CID>
    <ORDERS>{ns3:getORDER($c)}</ORDERS></P>
};)";
  ASSERT_TRUE(platform_.LoadDataService(service).ok());
  ServerOptions reference_options;
  reference_options.enable_optimizer = false;
  reference_options.enable_pushdown = false;
  DataServicePlatform reference(reference_options);
  ASSERT_TRUE(reference
                  .RegisterRelationalSource(
                      "ns3",
                      std::shared_ptr<relational::Database>(
                          MakeCustomerDb(6, 3).release()),
                      "oracle")
                  .ok());
  ASSERT_TRUE(reference.LoadDataService(service).ok());

  DataServicePlatform::MethodCriteria criteria;
  criteria.filter_child = "CID";
  criteria.filter_value = "CUST003";
  auto got = platform_.CallMethod("tns:people", {}, criteria);
  auto want = reference.CallMethod("tns:people", {}, criteria);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ(xml::SerializeSequence(*got), xml::SerializeSequence(*want));
  // The compiled plan's EXPLAIN snapshot shows the keyed SQL.
  auto history = platform_.plan_history().Snapshot();
  ASSERT_EQ(history.size(), 1u);
  ASSERT_EQ(history[0].versions.size(), 1u);
  const std::string& explain = history[0].versions[0].explain_text;
  EXPECT_NE(explain.find("WHERE (t1.\"CID\" = 'CUST003')"), std::string::npos)
      << explain;
}

TEST_F(ServerTest, FileSourcesIntegrateWithQueries) {
  // Non-queryable sources (paper §2.2): XML and CSV files join against
  // relational data in the same query.
  xsd::TypePtr region = xsd::XType::ComplexElement(
      "REGION",
      {{"NAME", xsd::One(xsd::XType::SimpleElement(
                    "NAME", xml::AtomicType::kString))},
       {"CODE", xsd::One(xsd::XType::SimpleElement(
                    "CODE", xml::AtomicType::kInteger))}});
  ASSERT_TRUE(platform_
                  .RegisterXmlSource("f:regions",
                                     "<REGIONS>"
                                     "<REGION><NAME>west</NAME><CODE>1</CODE>"
                                     "</REGION>"
                                     "<REGION><NAME>east</NAME><CODE>2</CODE>"
                                     "</REGION></REGIONS>",
                                     region)
                  .ok());
  ASSERT_TRUE(platform_
                  .RegisterCsvSource("f:rates",
                                     "CODE,RATE\n1,0.07\n2,0.05\n",
                                     "RATE_ROW", {"CODE", "RATE"},
                                     {xml::AtomicType::kInteger,
                                      xml::AtomicType::kDouble})
                  .ok());
  auto r = platform_.Execute(
      "for $g in f:regions(), $t in f:rates() "
      "where $g/CODE eq $t/CODE "
      "return <R><N>{fn:data($g/NAME)}</N><RATE>{fn:data($t/RATE)}</RATE>"
      "</R>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].node()->FirstChildNamed("RATE")->TypedValue().AsDouble(),
            0.07);
  // Static typing applies to file shapes too.
  EXPECT_EQ(platform_.Execute("f:regions()/TYPO").status().code(),
            StatusCode::kTypeError);
}

TEST_F(ServerTest, DescribeReportsPlatformState) {
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "(::pragma function kind=\"read\" ::)\n"
                      "declare function tns:all() as element(CUSTOMER)* "
                      "{ ns3:CUSTOMER() };")
                  .ok());
  ASSERT_TRUE(platform_.Execute("fn:count(tns:all())").ok());
  std::string report = platform_.Describe();
  EXPECT_NE(report.find("ns3:CUSTOMER"), std::string::npos) << report;
  EXPECT_NE(report.find("tns:all"), std::string::npos);
  EXPECT_NE(report.find("lineage provider tns:all"), std::string::npos);
  EXPECT_NE(report.find("pushed SQL executions"), std::string::npos);
}

TEST_F(ServerTest, ConcurrentQueriesOnSharedPlans) {
  // The paper's server is multi-client; plans and caches must be safe to
  // share across threads.
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:all() as element(P)* { "
                      "for $c in ns3:CUSTOMER() "
                      "return <P>{fn:data($c/CID)}</P> };")
                  .ok());
  const char* queries[] = {
      "tns:all()",
      "fn:count(ns3:CUSTOMER())",
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
      "where $c/CID eq $o/CID return fn:data($o/OID)",
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        auto r = platform_.Execute(queries[(t + i) % 3]);
        if (!r.ok() || r->empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, ViewPlanCachePopulatedByPrepares) {
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:v() as element(CUSTOMER)* "
                      "{ ns3:CUSTOMER() };")
                  .ok());
  ASSERT_TRUE(platform_.Execute("fn:count(tns:v())").ok());
  EXPECT_EQ(platform_.view_plan_cache().size(), 1u);
  ASSERT_TRUE(platform_.Execute("fn:count(tns:v()) + 1").ok());
  EXPECT_GT(platform_.view_plan_cache().hits(), 0);
}

TEST_F(ServerTest, ConcurrentMissesOnOneTextLeaveOneCacheEntry) {
  // Two clients that miss on the same text both compile it; the second
  // insert must replace the first, not add a second LRU entry that would
  // later evict the live plan early. Rounds repeat until several of them
  // had both clients miss (the interleaving under test), with a bound so
  // a loaded machine that never overlaps them fails instead of hanging.
  const char* q =
      "for $c in ns3:CUSTOMER() where $c/CID ne \"CUST001\" "
      "and $c/LAST_NAME ne \"Lee\" return fn:data($c/CID)";
  int double_misses = 0;
  for (int round = 0; round < 2000 && double_misses < 5; ++round) {
    platform_.ClearPlanCache();
    const int64_t misses_before = platform_.plan_cache_misses();
    std::atomic<int> ready{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        if (!platform_.Prepare(q).ok()) failures.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);
    if (platform_.plan_cache_misses() - misses_before == 2) ++double_misses;
    auto [entries, lru] = platform_.plan_cache_sizes();
    ASSERT_EQ(entries, 1u) << "round " << round;
    ASSERT_EQ(lru, 1u) << "round " << round;
  }
  EXPECT_GE(double_misses, 1);
}

TEST_F(ServerTest, PlanCacheHitRefreshesRecency) {
  ServerOptions options;
  options.plan_cache_size = 2;
  DataServicePlatform platform(options);
  ASSERT_TRUE(platform
                  .RegisterRelationalSource(
                      "ns3",
                      std::shared_ptr<relational::Database>(
                          MakeCustomerDb(3, 1).release()),
                      "oracle")
                  .ok());
  ASSERT_TRUE(platform.Prepare("1 + 1").ok());
  ASSERT_TRUE(platform.Prepare("2 + 2").ok());
  ASSERT_TRUE(platform.Prepare("1 + 1").ok());  // hit: now most recent
  ASSERT_TRUE(platform.Prepare("3 + 3").ok());  // evicts "2 + 2"
  EXPECT_EQ(platform.plan_cache_sizes(), std::make_pair(size_t{2}, size_t{2}));
  bool hit = false;
  ASSERT_TRUE(platform.Prepare("1 + 1", &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(platform.Prepare("2 + 2", &hit).ok());
  EXPECT_FALSE(hit);
}

TEST_F(ServerTest, ExplainReportsOptimizerPasses) {
  auto plan = platform_.Prepare(
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
      "where $c/LAST_NAME ne \"Lee\" and $o/CID eq $c/CID "
      "and $c/SINCE ge 1000000000 return fn:data($o/OID)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const int passes = (*plan)->optimizer_passes;
  EXPECT_GE(passes, 1);
  EXPECT_LT(passes, platform_.options().optimizer.max_passes);
  const std::string text = RenderPlanText(**plan);
  EXPECT_NE(text.find("us passes=" + std::to_string(passes) + "\n"),
            std::string::npos)
      << text;
  const std::string json = RenderPlanJson(**plan);
  EXPECT_NE(json.find("\"optimizer_passes\":" + std::to_string(passes)),
            std::string::npos)
      << json;
  // Converged: the max-passes counter stays at zero.
  EXPECT_EQ(platform_.MetricsSnapshot().counters.at("optimizer.max_passes_hit"),
            0);
}

TEST_F(ServerTest, MaxPassesHitIsCounted) {
  ServerOptions options;
  options.optimizer.max_passes = 1;
  DataServicePlatform platform(options);
  ASSERT_TRUE(platform
                  .RegisterRelationalSource(
                      "ns3",
                      std::shared_ptr<relational::Database>(
                          MakeCustomerDb(3, 1).release()),
                      "oracle")
                  .ok());
  // Splitting the conjunction changes the tree, so one pass cannot
  // reach the fixpoint.
  auto plan = platform.Prepare(
      "for $c in ns3:CUSTOMER() where $c/CID ne \"CUST001\" "
      "and $c/LAST_NAME ne \"Lee\" return fn:data($c/CID)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->optimizer_passes, 1);
  EXPECT_EQ(platform.MetricsSnapshot().counters.at("optimizer.max_passes_hit"),
            1);
}

TEST_F(ServerTest, CompileTotalIncludesBookkeeping) {
  ASSERT_TRUE(platform_.Prepare("fn:count(ns3:CUSTOMER())").ok());
  auto snap = platform_.MetricsSnapshot();
  const auto& bookkeeping = snap.windows.at("compile.bookkeeping_micros");
  const auto& total = snap.windows.at("compile.total_micros");
  EXPECT_EQ(bookkeeping.total.count, 1);
  EXPECT_EQ(total.total.count, 1);
  int64_t phases = 0;
  for (const char* phase :
       {"compile.parse_micros", "compile.analyze_micros",
        "compile.optimize_micros", "compile.pushdown_micros",
        "compile.bookkeeping_micros"}) {
    phases += snap.windows.at(phase).total.sum_micros;
  }
  EXPECT_EQ(total.total.sum_micros, phases);
}

}  // namespace
}  // namespace aldsp::server
