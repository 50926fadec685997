// Tests for the §9 roadmap features implemented here: observed-cost
// optimization ("basing optimization decisions only on actually observed
// data characteristics and data source behavior") and declarative hints
// that survive through layers of views.

#include <gtest/gtest.h>

#include "runtime/observed_cost.h"
#include "server/server.h"
#include "tests/test_fixtures.h"

namespace aldsp::runtime {
namespace {

using aldsp::testing::MakeCustomerDb;
using server::DataServicePlatform;
using xquery::Clause;
using xquery::ExprPtr;
using xquery::JoinMethod;

TEST(ObservedCostModelTest, RecordsAndAverages) {
  ObservedCostModel model;
  EXPECT_EQ(model.ObservedRows("db", "T"), -1);
  EXPECT_LT(model.ObservedRoundTripMicros("db"), 0);
  model.RecordTableScan("db", "T", 100, 1000);
  model.RecordTableScan("db", "T", 120, 3000);
  EXPECT_EQ(model.ObservedRows("db", "T"), 120);  // latest cardinality
  auto stats = model.TableStats("db", "T");
  EXPECT_EQ(stats.scans, 2);
  EXPECT_DOUBLE_EQ(stats.avg_scan_micros, 2000.0);
  model.RecordStatement("db", 500);
  model.RecordStatement("db", 1500);
  EXPECT_DOUBLE_EQ(model.ObservedRoundTripMicros("db"), 1000.0);
  model.Clear();
  EXPECT_EQ(model.ObservedRows("db", "T"), -1);
}

TEST(ObservedCostModelTest, AdviceThresholds) {
  ObservedCostModel model;
  // Unknown cardinalities: fall back to the default.
  EXPECT_TRUE(model.AdvisePPk("db", "T", 100, true));
  EXPECT_FALSE(model.AdvisePPk("db", "T", 100, false));
  model.RecordTableScan("db", "T", 10000, 100);
  // Small outer vs large inner: PP-k.
  EXPECT_TRUE(model.AdvisePPk("db", "T", 100, false));
  // Outer comparable to inner: full fetch.
  EXPECT_FALSE(model.AdvisePPk("db", "T", 5000, true));
  // Block size: paper default floor, clamped ceiling.
  EXPECT_EQ(model.AdvisePPkBlockSize(-1), 20);
  EXPECT_EQ(model.AdvisePPkBlockSize(100), 20);
  EXPECT_EQ(model.AdvisePPkBlockSize(2000), 200);
  EXPECT_EQ(model.AdvisePPkBlockSize(1000000), 500);
}

const Clause* FindJoin(const ExprPtr& plan) {
  if (plan->kind != xquery::ExprKind::kFLWOR) return nullptr;
  for (const auto& cl : plan->clauses) {
    if (cl.kind == Clause::Kind::kJoin) return &cl;
  }
  return nullptr;
}

// Cross-source join so pushdown cannot collapse it into one SQL query;
// the optimizer must pick a mid-tier method.
constexpr const char* kCrossJoin =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <X>{fn:data($cc/CCN)}</X>";

TEST(ObservedCostIntegrationTest, AdaptsJoinMethodToObservedCardinalities) {
  // Large CUSTOMER outer vs small CREDIT_CARD inner: after observing
  // both tables, the optimizer should prefer a one-shot full fetch
  // (index nested loop) over PP-k.
  DataServicePlatform platform;
  auto db1 =
      std::shared_ptr<relational::Database>(MakeCustomerDb(800, 0).release());
  auto db2 = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCreditCardDb(40).release());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns3", db1, "oracle").ok());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns2", db2, "oracle").ok());

  // Before any observation: the paper's default (PP-k, k=20).
  auto cold = platform.Prepare(kCrossJoin);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const Clause* join = FindJoin((*cold)->plan);
  ASSERT_NE(join, nullptr) << xquery::DebugString(*(*cold)->plan);
  EXPECT_EQ(join->method, JoinMethod::kPPkIndexNestedLoop);
  EXPECT_EQ(join->ppk_block_size, 20);

  // Observe the cardinalities by running table scans.
  ASSERT_TRUE(platform.Execute("fn:count(ns3:CUSTOMER())").ok());
  ASSERT_TRUE(platform.Execute("fn:count(ns2:CREDIT_CARD())").ok());
  EXPECT_EQ(platform.observed_cost().ObservedRows("customer_db", "CUSTOMER"),
            800);
  EXPECT_EQ(platform.observed_cost().ObservedRows("billing_db", "CREDIT_CARD"),
            21);

  // Recompile: 800 outer vs 21 inner -> full fetch now wins.
  platform.ClearPlanCache();
  platform.view_plan_cache().Clear();
  auto warm = platform.Prepare(kCrossJoin);
  ASSERT_TRUE(warm.ok());
  join = FindJoin((*warm)->plan);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->method, JoinMethod::kIndexNestedLoop)
      << xquery::DebugString(*(*warm)->plan);
  // Execution still answers correctly.
  auto r = platform.ExecutePlan(**warm);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 21u);
}

TEST(ObservedCostIntegrationTest, ProfiledRunsAloneDriveAdaptation) {
  // The §9 observe -> optimize loop closed by the profiler: cardinalities
  // reach the observed-cost model exclusively through completed
  // QueryTraces (ExecuteProfiled), with no manual Record* calls and no
  // untraced Execute, and the next compilation adapts the join method.
  DataServicePlatform platform;
  auto db1 =
      std::shared_ptr<relational::Database>(MakeCustomerDb(800, 0).release());
  auto db2 = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCreditCardDb(40).release());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns3", db1, "oracle").ok());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns2", db2, "oracle").ok());

  auto cold = platform.Prepare(kCrossJoin);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const Clause* join = FindJoin((*cold)->plan);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->method, JoinMethod::kPPkIndexNestedLoop);

  auto p1 = platform.ExecuteProfiled("fn:count(ns3:CUSTOMER())");
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  auto p2 = platform.ExecuteProfiled("fn:count(ns2:CREDIT_CARD())");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(platform.observed_cost().ObservedRows("customer_db", "CUSTOMER"),
            800);
  EXPECT_EQ(platform.observed_cost().ObservedRows("billing_db", "CREDIT_CARD"),
            21);
  // Each profiled scan was fed exactly once: the source call records
  // its observation inline, and nothing replays the trace afterwards.
  EXPECT_EQ(
      platform.observed_cost().TableStats("customer_db", "CUSTOMER").scans, 1);

  platform.ClearPlanCache();
  platform.view_plan_cache().Clear();
  auto warm = platform.Prepare(kCrossJoin);
  ASSERT_TRUE(warm.ok());
  join = FindJoin((*warm)->plan);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->method, JoinMethod::kIndexNestedLoop)
      << xquery::DebugString(*(*warm)->plan);
  auto r = platform.ExecutePlan(**warm);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 21u);
}

TEST(ObservedCostIntegrationTest, UnprofiledRunsFeedThePPkSource) {
  // A PP-k-only source is observed by plain runs too: one Execute and one
  // ExecuteStream (always-on counters trace, no event list) feed every
  // block fetch into the model, so the next PP-k join can size its
  // prefetch pipeline without any profiling.
  DataServicePlatform platform;
  auto db1 =
      std::shared_ptr<relational::Database>(MakeCustomerDb(800, 0).release());
  auto db2 = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCreditCardDb(40).release());
  relational::LatencyModel lm;
  lm.roundtrip_micros = 500;
  lm.sleep = false;  // virtual time: the split still sees the round trip
  db2->latency_model() = lm;
  ASSERT_TRUE(platform.RegisterRelationalSource("ns3", db1, "oracle").ok());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns2", db2, "oracle").ok());
  const ObservedCostModel& model = platform.observed_cost();
  EXPECT_EQ(model.RoundTripP50Micros("billing_db"), -1);

  ASSERT_TRUE(platform.Execute(kCrossJoin).ok());
  int64_t streamed = 0;
  ASSERT_TRUE(platform
                  .ExecuteStream(kCrossJoin,
                                 [&](const xml::Item&) {
                                   ++streamed;
                                   return Status::OK();
                                 })
                  .ok());
  EXPECT_EQ(streamed, 21);
  EXPECT_GT(model.RoundTripP50Micros("billing_db"), 0);
  // One statement per PP-k block: 800 outer rows / k=20, twice.
  const int64_t blocks = platform.stats().ppk_blocks.load();
  EXPECT_EQ(blocks, 80);
  EXPECT_EQ(model.ObservedStatements("billing_db"), blocks);
  EXPECT_GT(model.AdvisePrefetchDepth("billing_db", 20), 1);

  // A profiled run feeds each fetch and each scan exactly once too.
  auto prof = platform.ExecuteProfiled(kCrossJoin);
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  EXPECT_EQ(platform.stats().ppk_blocks.load(), 120);
  EXPECT_EQ(model.ObservedStatements("billing_db"), 120);
  EXPECT_EQ(model.TableStats("customer_db", "CUSTOMER").scans, 3);
}

TEST(ObservedCostIntegrationTest, AdaptsBlockSizeToSelectiveOuter) {
  // Small CUSTOMER outer vs large ORDER-style inner: PP-k stays chosen
  // and the block size scales with the observed outer cardinality.
  DataServicePlatform platform;
  auto db1 =
      std::shared_ptr<relational::Database>(MakeCustomerDb(600, 0).release());
  auto db2 = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCreditCardDb(9000).release());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns3", db1, "oracle").ok());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns2", db2, "oracle").ok());
  ASSERT_TRUE(platform.Execute("fn:count(ns3:CUSTOMER())").ok());
  ASSERT_TRUE(platform.Execute("fn:count(ns2:CREDIT_CARD())").ok());
  platform.ClearPlanCache();
  auto plan = platform.Prepare(kCrossJoin);
  ASSERT_TRUE(plan.ok());
  const Clause* join = FindJoin((*plan)->plan);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->method, JoinMethod::kPPkIndexNestedLoop);
  EXPECT_EQ(join->ppk_block_size, 60);  // outer 600 / 10 round-trip target
}

class HintsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = std::shared_ptr<relational::Database>(
        MakeCustomerDb(10, 3).release());
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns3", db, "oracle").ok());
  }

  const Clause* PreparedJoin(const std::string& query) {
    auto plan = platform_.Prepare(query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    last_plan_ = (*plan)->plan;
    return FindJoin(last_plan_);
  }

  DataServicePlatform platform_;
  ExprPtr last_plan_;
};

TEST_F(HintsTest, PPkBlockSizeHintSurvivesViewUnfolding) {
  // The hint lives on the data service function; every query that
  // unfolds the view inherits it (§9: hints must "survive correctly
  // through layers of views").
  ASSERT_TRUE(platform_
                  .LoadDataService(R"(
(::pragma hint ppk_k="5" ::)
declare function tns:joined() as element(CO)* {
  for $c in ns3:CUSTOMER(), $o in ns3:ORDER()
  where $c/CID eq $o/CID
  return <CO>{fn:data($o/OID)}</CO>
};)")
                  .ok());
  // Disable pushdown so the join stays in the mid-tier and the hint is
  // observable on the join clause.
  platform_.options().enable_pushdown = false;
  const Clause* join = PreparedJoin("tns:joined()");
  ASSERT_NE(join, nullptr) << xquery::DebugString(*last_plan_);
  EXPECT_EQ(join->ppk_block_size, 5);
  // A second layer of views on top changes nothing.
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:layer2() as element(CO)* "
                      "{ tns:joined() };")
                  .ok());
  join = PreparedJoin("tns:layer2()");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->ppk_block_size, 5);
}

TEST_F(HintsTest, JoinMethodHintForcesMethod) {
  ASSERT_TRUE(platform_
                  .LoadDataService(R"(
(::pragma hint join_method="inl" ::)
declare function tns:inljoin() as element(CO)* {
  for $c in ns3:CUSTOMER(), $o in ns3:ORDER()
  where $c/CID eq $o/CID
  return <CO>{fn:data($o/OID)}</CO>
};)")
                  .ok());
  platform_.options().enable_pushdown = false;
  const Clause* join = PreparedJoin("tns:inljoin()");
  ASSERT_NE(join, nullptr) << xquery::DebugString(*last_plan_);
  EXPECT_EQ(join->method, JoinMethod::kIndexNestedLoop);
  EXPECT_EQ(join->ppk_fetch, nullptr);
  // And the hinted plan returns correct results.
  auto r = platform_.Execute("tns:inljoin()");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 15u);  // sum of i%4 for i in 1..10
}

TEST_F(HintsTest, UnhintedFunctionsKeepDefaults) {
  ASSERT_TRUE(platform_
                  .LoadDataService(R"(
declare function tns:plain() as element(CO)* {
  for $c in ns3:CUSTOMER(), $o in ns3:ORDER()
  where $c/CID eq $o/CID
  return <CO>{fn:data($o/OID)}</CO>
};)")
                  .ok());
  platform_.options().enable_pushdown = false;
  const Clause* join = PreparedJoin("tns:plain()");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->method, JoinMethod::kPPkIndexNestedLoop);
  EXPECT_EQ(join->ppk_block_size, 20);
}

}  // namespace
}  // namespace aldsp::runtime
