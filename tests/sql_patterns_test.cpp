// Reproduces the SQL pushdown patterns of the paper's Tables 1 and 2:
// for each pattern the paper's XQuery snippet is compiled through the
// full pipeline and we verify (1) a SQL region was generated with the
// paper's structural shape (joins, CASE, GROUP BY, DISTINCT, EXISTS,
// ROWNUM pagination) and (2) executing the pushed plan returns exactly
// the same result as pure mid-tier evaluation.

#include <gtest/gtest.h>

#include "examples/example_env.h"
#include "server/server.h"
#include "sql/dialect.h"
#include "tests/test_fixtures.h"
#include "xml/serializer.h"

namespace aldsp::sql {
namespace {

using aldsp::testing::MakeCustomerDb;
using server::CompiledPlan;
using server::DataServicePlatform;
using server::ServerOptions;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;

void CollectSqlNodes(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kSqlQuery) out->push_back(e.get());
  xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
    if (c) CollectSqlNodes(c, out);
  });
}

class SqlPatternsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = std::shared_ptr<relational::Database>(
        MakeCustomerDb(12, 3).release());
    ASSERT_TRUE(pushed_.RegisterRelationalSource("ns3", db, "oracle").ok());
    auto db2 = std::shared_ptr<relational::Database>(
        MakeCustomerDb(12, 3).release());
    plain_.options().enable_pushdown = false;
    ASSERT_TRUE(plain_.RegisterRelationalSource("ns3", db2, "oracle").ok());
  }

  // Compiles with pushdown; returns the Oracle SQL of the single pushed
  // region and checks result equivalence with the non-pushdown server.
  std::string CompileAndCheck(const std::string& query,
                              int expected_sql_nodes = 1) {
    auto plan = pushed_.Prepare(query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << query;
    if (!plan.ok()) return "";
    std::vector<const Expr*> sql_nodes;
    ExprPtr root = (*plan)->plan;
    CollectSqlNodes(root, &sql_nodes);
    EXPECT_EQ(sql_nodes.size(), static_cast<size_t>(expected_sql_nodes))
        << xquery::DebugString(*root);
    if (sql_nodes.empty()) return "";

    auto fast = pushed_.ExecutePlan(**plan);
    auto slow = plain_.Execute(query);
    EXPECT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_TRUE(slow.ok()) << slow.status().ToString();
    if (fast.ok() && slow.ok()) {
      EXPECT_EQ(xml::SerializeSequence(*fast), xml::SerializeSequence(*slow))
          << query << "\nplan: " << xquery::DebugString(*root);
    }
    auto text = RenderSql(*sql_nodes[0]->sql()->select, SqlDialect::kOracle);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? *text : "";
  }

  DataServicePlatform pushed_;
  DataServicePlatform plain_;
};

// Table 1(a): simple select-project.
TEST_F(SqlPatternsTest, PatternA_SelectProject) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" "
      "return $c/FIRST_NAME");
  EXPECT_NE(sql.find("SELECT t1.\"FIRST_NAME\" AS c1"), std::string::npos)
      << sql;
  EXPECT_NE(sql.find("FROM \"CUSTOMER\" t1"), std::string::npos) << sql;
  EXPECT_NE(sql.find("t1.\"CID\" = 'CUST001'"), std::string::npos) << sql;
  EXPECT_EQ(sql.find("JOIN"), std::string::npos) << sql;
}

// Table 1(b): inner join.
TEST_F(SqlPatternsTest, PatternB_InnerJoin) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
      "where $c/CID eq $o/CID "
      "return <CUSTOMER_ORDER>{ $c/CID, $o/OID }</CUSTOMER_ORDER>");
  EXPECT_NE(sql.find(" JOIN \"ORDER\" t2"), std::string::npos) << sql;
  EXPECT_EQ(sql.find("LEFT OUTER"), std::string::npos) << sql;
  EXPECT_NE(sql.find("t1.\"CID\" = t2.\"CID\""), std::string::npos) << sql;
}

// Table 1(c): nested FLWR -> left outer join + mid-tier regroup.
TEST_F(SqlPatternsTest, PatternC_OuterJoin) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "return <CUSTOMER>{ $c/CID, "
      "for $o in ns3:ORDER() where $c/CID eq $o/CID return $o/OID "
      "}</CUSTOMER>");
  EXPECT_NE(sql.find("LEFT OUTER JOIN \"ORDER\" t2"), std::string::npos)
      << sql;
  EXPECT_NE(sql.find("t1.\"CID\" = t2.\"CID\""), std::string::npos) << sql;
}

// Table 1(d): if-then-else -> CASE. (Atomic-valued branches push; see
// DESIGN.md for the element-valued caveat.)
TEST_F(SqlPatternsTest, PatternD_IfThenElse) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "return <CUSTOMER>{ "
      "if ($c/CID eq \"CUST001\") then fn:data($c/FIRST_NAME) "
      "else fn:data($c/LAST_NAME) }</CUSTOMER>");
  EXPECT_NE(sql.find("CASE WHEN"), std::string::npos) << sql;
  EXPECT_NE(sql.find("THEN t1.\"FIRST_NAME\" ELSE t1.\"LAST_NAME\" END"),
            std::string::npos)
      << sql;
}

// Table 1(e): group-by with aggregation.
TEST_F(SqlPatternsTest, PatternE_GroupByCount) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "group $c as $p by $c/LAST_NAME as $l "
      "return <CUSTOMER>{ $l, fn:count($p) }</CUSTOMER>");
  EXPECT_NE(sql.find("COUNT(*)"), std::string::npos) << sql;
  EXPECT_NE(sql.find("GROUP BY t1.\"LAST_NAME\""), std::string::npos) << sql;
}

// Table 1(f): value-only group-by is SQL DISTINCT.
TEST_F(SqlPatternsTest, PatternF_Distinct) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() group by $c/LAST_NAME as $l return $l");
  EXPECT_NE(sql.find("SELECT DISTINCT t1.\"LAST_NAME\""), std::string::npos)
      << sql;
  EXPECT_EQ(sql.find("GROUP BY"), std::string::npos) << sql;
}

// Table 2(g): outer join with aggregation.
TEST_F(SqlPatternsTest, PatternG_OuterJoinAggregation) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "return <CUSTOMER>{ $c/CID }<ORDERS>{ "
      "fn:count(for $o in ns3:ORDER() where $o/CID eq $c/CID return $o) "
      "}</ORDERS></CUSTOMER>");
  EXPECT_NE(sql.find("LEFT OUTER JOIN \"ORDER\" t2"), std::string::npos)
      << sql;
  EXPECT_NE(sql.find("COUNT(t2.\"CID\")"), std::string::npos) << sql;
  EXPECT_NE(sql.find("GROUP BY t1.\"CID\""), std::string::npos) << sql;
}

// Pattern (g) variants: SUM / AVG / MIN / MAX over correlated rows.
TEST_F(SqlPatternsTest, PatternG_OtherAggregates) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() return <T>{ $c/CID }"
      "<SPEND>{ fn:sum(for $o in ns3:ORDER() where $o/CID eq $c/CID "
      "return $o/AMOUNT) }</SPEND></T>");
  EXPECT_NE(sql.find("SUM(t2.\"AMOUNT\")"), std::string::npos) << sql;
  EXPECT_NE(sql.find("LEFT OUTER JOIN"), std::string::npos) << sql;
  std::string sql2 = CompileAndCheck(
      "for $c in ns3:CUSTOMER() return <T>{ $c/CID }"
      "<TOP>{ fn:max(for $o in ns3:ORDER() where $o/CID eq $c/CID "
      "return $o/AMOUNT) }</TOP></T>");
  EXPECT_NE(sql2.find("MAX(t2.\"AMOUNT\")"), std::string::npos) << sql2;
}

// Plain ORDER BY pushes without pagination.
TEST_F(SqlPatternsTest, OrderByPushes) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() order by $c/LAST_NAME descending, $c/CID "
      "return <R>{ fn:data($c/CID) }</R>");
  EXPECT_NE(sql.find("ORDER BY t1.\"LAST_NAME\" DESC, t1.\"CID\""),
            std::string::npos)
      << sql;
}

// Arithmetic in projections and predicates pushes (paper §4.4 lists
// "numeric and date-time arithmetic" as pushable).
TEST_F(SqlPatternsTest, ArithmeticPushes) {
  std::string sql = CompileAndCheck(
      "for $o in ns3:ORDER() where $o/AMOUNT * 2 gt 50 "
      "return <R>{ fn:data($o/AMOUNT) + 1 }</R>");
  EXPECT_NE(sql.find("(t1.\"AMOUNT\" * 2)"), std::string::npos) << sql;
  EXPECT_NE(sql.find("(t1.\"AMOUNT\" + 1)"), std::string::npos) << sql;
}

// Table 2(h): quantified expression -> EXISTS semi-join.
TEST_F(SqlPatternsTest, PatternH_ExistsSemiJoin) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "where some $o in ns3:ORDER() satisfies $c/CID eq $o/CID "
      "return $c/CID");
  EXPECT_NE(sql.find("WHERE EXISTS(SELECT 1 FROM \"ORDER\" t2"),
            std::string::npos)
      << sql;
  EXPECT_NE(sql.find("t1.\"CID\" = t2.\"CID\""), std::string::npos) << sql;
}

// Table 2(i): subsequence() -> Oracle ROWNUM pagination.
TEST_F(SqlPatternsTest, PatternI_SubsequenceRownum) {
  std::string sql = CompileAndCheck(
      "let $cs := for $c in ns3:CUSTOMER() "
      "let $oc := fn:count(for $o in ns3:ORDER() where $c/CID eq $o/CID "
      "return $o) "
      "order by $oc descending "
      "return <CUSTOMER>{ fn:data($c/CID), $oc }</CUSTOMER> "
      "return subsequence($cs, 3, 5)");
  EXPECT_NE(sql.find("ROWNUM"), std::string::npos) << sql;
  EXPECT_NE(sql.find("LEFT OUTER JOIN \"ORDER\" t2"), std::string::npos)
      << sql;
  EXPECT_NE(sql.find("GROUP BY"), std::string::npos) << sql;
  EXPECT_NE(sql.find("ORDER BY COUNT(t2.\"CID\") DESC"), std::string::npos)
      << sql;
  EXPECT_NE(sql.find(">= 3"), std::string::npos) << sql;
  EXPECT_NE(sql.find("< 8"), std::string::npos) << sql;
}

// Navigation-function calls in content are the implicit form of pattern
// (c): they become part of the LEFT OUTER JOIN instead of one keyed
// query per outer row.
TEST_F(SqlPatternsTest, NavigationCallBecomesOuterJoin) {
  const char* q =
      "for $c in ns3:CUSTOMER() "
      "return <P>{ $c/CID }<OS>{ ns3:getORDER($c) }</OS></P>";
  std::string sql = CompileAndCheck(q);
  EXPECT_NE(sql.find("LEFT OUTER JOIN \"ORDER\" t2"), std::string::npos)
      << sql;
  // One statement total, versus 1 + N navigation queries naively.
  auto plan = pushed_.Prepare(q);
  ASSERT_TRUE(plan.ok());
  auto* db = pushed_.adaptors().FindDatabase("customer_db");
  db->stats().Reset();
  ASSERT_TRUE(pushed_.ExecutePlan(**plan).ok());
  EXPECT_EQ(db->stats().statements.load(), 1);
}

// fn:exists / fn:empty over correlated row sequences push as EXISTS /
// NOT EXISTS (the anti-semi-join companion of pattern (h)).
TEST_F(SqlPatternsTest, ExistsAndEmptyBecomeExistsPredicates) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "where fn:exists(for $o in ns3:ORDER() where $o/CID eq $c/CID "
      "return $o) return $c/CID");
  EXPECT_NE(sql.find("WHERE EXISTS(SELECT 1 FROM \"ORDER\""),
            std::string::npos)
      << sql;
  std::string sql2 = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "where fn:empty(for $o in ns3:ORDER() where $o/CID eq $c/CID "
      "return $o) return $c/CID");
  EXPECT_NE(sql2.find("NOT (EXISTS(SELECT 1 FROM \"ORDER\""),
            std::string::npos)
      << sql2;
}

// String containment functions push as LIKE with wildcard escaping.
TEST_F(SqlPatternsTest, ContainsAndStartsWithBecomeLike) {
  std::string sql = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "where fn:contains(fn:string($c/LAST_NAME), \"mi\") "
      "return $c/CID");
  EXPECT_NE(sql.find("LIKE '%mi%' ESCAPE '\\'"), std::string::npos) << sql;
  std::string sql2 = CompileAndCheck(
      "for $c in ns3:CUSTOMER() "
      "where fn:starts-with(fn:string($c/CID), \"CUST00\") "
      "return $c/LAST_NAME");
  EXPECT_NE(sql2.find("LIKE 'CUST00%'"), std::string::npos) << sql2;
  // Wildcard characters in the needle are escaped, not interpreted.
  auto plan = pushed_.Prepare(
      "for $c in ns3:CUSTOMER() "
      "where fn:contains(fn:string($c/LAST_NAME), \"100%\") return $c/CID");
  ASSERT_TRUE(plan.ok());
  std::vector<const Expr*> nodes;
  ExprPtr root = (*plan)->plan;
  CollectSqlNodes(root, &nodes);
  ASSERT_FALSE(nodes.empty());
  auto text = RenderSql(*nodes[0]->sql()->select, SqlDialect::kOracle);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("%100\\%%"), std::string::npos) << *text;
}

// Parameters: outer-variable predicates bind as SQL parameters (§4.4).
// The inner filtered scan correlates with $x bound outside the region,
// so the value is computed in the XQuery runtime and shipped as ?.
TEST_F(SqlPatternsTest, OuterVariablesBecomeParameters) {
  std::string sql = CompileAndCheck(
      "for $x in (\"CUST005\", \"CUST007\") "
      "return ns3:CUSTOMER()[CID eq $x]/LAST_NAME");
  EXPECT_NE(sql.find("= ?"), std::string::npos) << sql;
  // A literal predicate, in contrast, is inlined as a SQL literal.
  std::string sql2 =
      CompileAndCheck("ns3:CUSTOMER()[CID eq \"CUST005\"]/LAST_NAME");
  EXPECT_NE(sql2.find("= 'CUST005'"), std::string::npos) << sql2;
}

// Cross-source boundaries stop a region: nothing from another database
// may enter the generated SQL.
TEST_F(SqlPatternsTest, CrossSourceDoesNotPush) {
  auto billing = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCreditCardDb(12).release());
  ASSERT_TRUE(pushed_.RegisterRelationalSource("ns2", billing, "db2").ok());
  auto plan = pushed_.Prepare(
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID return <X>{ $c/CID, $cc/CCN }</X>");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<const Expr*> nodes;
  ExprPtr root = (*plan)->plan;
  CollectSqlNodes(root, &nodes);
  for (const auto* n : nodes) {
    // Each SQL node touches exactly one source.
    auto text = RenderSql(*n->sql()->select, SqlDialect::kBase92);
    ASSERT_TRUE(text.ok());
    bool has_customer = text->find("\"CUSTOMER\"") != std::string::npos;
    bool has_cc = text->find("\"CREDIT_CARD\"") != std::string::npos;
    EXPECT_NE(has_customer, has_cc) << *text;
  }
}

// The pushed patterns report their kinds via PushdownStats.
TEST_F(SqlPatternsTest, StatsReportPushes) {
  auto plan = pushed_.Prepare(
      "for $c in ns3:CUSTOMER() "
      "where some $o in ns3:ORDER() satisfies $c/CID eq $o/CID "
      "return $c/CID");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->pushdown.regions_pushed, 1);
  EXPECT_EQ((*plan)->pushdown.exists_pushed, 1);
}

// A scan whose FLWOR cannot become one region (its return calls other
// sources) still ships its own where clauses.
TEST_F(SqlPatternsTest, ScanKeepsItsWherePredicates) {
  const char* query =
      "for $c in ns3:CUSTOMER() where $c/LAST_NAME eq \"Lee\" "
      "return <C>{ fn:string-join(($c/FIRST_NAME, $c/LAST_NAME), \" \") }</C>";
  std::string sql = CompileAndCheck(query);
  EXPECT_NE(sql.find("WHERE (t1.\"LAST_NAME\" = 'Lee')"), std::string::npos)
      << sql;
  auto plan = pushed_.Prepare(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->pushdown.regions_pushed, 0);
  EXPECT_EQ((*plan)->pushdown.bare_scans_pushed, 1);
  EXPECT_EQ((*plan)->pushdown.scan_predicates_pushed, 1);
}

// Paper §3.4 / §4.2, Figure 3 at 100 customers: getProfileByID's CID
// predicate on the view's constructed child reaches the CUSTOMER scan, so
// a keyed read builds one profile: one statement per table and one
// rating call. (Building all 100 profiles and then filtering cost 201
// statements and 100 rating calls.)
TEST(ProfileByIdTest, KeyedReadBuildsOneProfile) {
  DataServicePlatform aldsp;
  std::shared_ptr<relational::Database> customers =
      examples::MakeCustomerDb(100);
  std::shared_ptr<relational::Database> billing = examples::MakeBillingDb(100);
  auto rating = examples::WireRunningExample(aldsp, customers, billing);
  ASSERT_TRUE(aldsp.LoadDataService(examples::ProfileDataService()).ok());
  const char* query = "tns:getProfileByID(\"CUST003\")";

  auto plan = aldsp.Prepare(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<const Expr*> nodes;
  ExprPtr root = (*plan)->plan;
  CollectSqlNodes(root, &nodes);
  int keyed_customer_scans = 0;
  for (const auto* n : nodes) {
    auto text = RenderSql(*n->sql()->select, SqlDialect::kOracle);
    ASSERT_TRUE(text.ok());
    if (text->find("FROM \"CUSTOMER\"") != std::string::npos &&
        text->find("\"CID\" = 'CUST003'") != std::string::npos) {
      ++keyed_customer_scans;
    }
  }
  EXPECT_EQ(keyed_customer_scans, 1) << xquery::DebugString(*root);

  customers->stats().Reset();
  billing->stats().Reset();
  auto result = aldsp.ExecutePlan(**plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(customers->stats().statements.load() +
                billing->stats().statements.load(),
            3);
  EXPECT_EQ(rating->invocation_count(), 1);

  // EXPLAIN says what reached SQL: both bare scans carry a predicate.
  auto explain = aldsp.Explain(query);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("pushdown: 0 region(s), 2 bare scan(s), "
                          "2 scan predicate(s), 0 outer join(s), "
                          "0 custom filter(s)\n"),
            std::string::npos)
      << *explain;
  auto json = aldsp.ExplainJson(query);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"bare_scans\":2,\"scan_predicates\":2"),
            std::string::npos)
      << *json;
}

// ----- Dialect rendering -----------------------------------------------

TEST(DialectTest, VendorMapping) {
  EXPECT_EQ(DialectForVendor("oracle"), SqlDialect::kOracle);
  EXPECT_EQ(DialectForVendor("DB2"), SqlDialect::kDb2);
  EXPECT_EQ(DialectForVendor("sqlserver"), SqlDialect::kSqlServer);
  EXPECT_EQ(DialectForVendor("sybase"), SqlDialect::kSybase);
  EXPECT_EQ(DialectForVendor("postgres"), SqlDialect::kBase92);
}

TEST(DialectTest, IdentifierQuotingAndFunctions) {
  using namespace relational;
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->items = {{SqlExpr::Func(SqlFunc::kUpper,
                             {SqlExpr::Column("t1", "LAST_NAME")}),
               "c1"},
              {SqlExpr::Func(SqlFunc::kLength,
                             {SqlExpr::Column("t1", "CID")}),
               "c2"},
              {SqlExpr::Func(SqlFunc::kConcat,
                             {SqlExpr::Column("t1", "CID"),
                              SqlExpr::Literal(Cell::Str("-x"))}),
               "c3"}};
  auto oracle = RenderSql(*s, SqlDialect::kOracle);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NE(oracle->find("UPPER(t1.\"LAST_NAME\")"), std::string::npos);
  EXPECT_NE(oracle->find("LENGTH"), std::string::npos);
  EXPECT_NE(oracle->find("||"), std::string::npos);
  auto mssql = RenderSql(*s, SqlDialect::kSqlServer);
  ASSERT_TRUE(mssql.ok());
  EXPECT_NE(mssql->find("[LAST_NAME]"), std::string::npos);
  EXPECT_NE(mssql->find("LEN("), std::string::npos);
  EXPECT_NE(mssql->find(" + "), std::string::npos);
}

TEST(DialectTest, PaginationPerDialect) {
  using namespace relational;
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"}};
  s->order_by = {{SqlExpr::Column("t1", "CID"), false}};
  s->range_start = 10;
  s->range_count = 20;
  auto oracle = RenderSql(*s, SqlDialect::kOracle);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NE(oracle->find("ROWNUM"), std::string::npos) << *oracle;
  EXPECT_NE(oracle->find(">= 10"), std::string::npos);
  EXPECT_NE(oracle->find("< 30"), std::string::npos);
  auto db2 = RenderSql(*s, SqlDialect::kDb2);
  ASSERT_TRUE(db2.ok());
  EXPECT_NE(db2->find("ROW_NUMBER() OVER"), std::string::npos) << *db2;
  // The conservative base platform refuses row ranges (kept in mid-tier).
  EXPECT_FALSE(RenderSql(*s, SqlDialect::kBase92).ok());
  EXPECT_FALSE(RenderSql(*s, SqlDialect::kSybase).ok());
}

TEST(DialectTest, StringLiteralEscaping) {
  using namespace relational;
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"}};
  s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "LAST_NAME"),
                             SqlExpr::Literal(Cell::Str("O'Brien")));
  auto sql = RenderSql(*s, SqlDialect::kOracle);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("'O''Brien'"), std::string::npos) << *sql;
}

TEST(DialectTest, UpdateRendering) {
  using namespace relational;
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("Smith"))}};
  u.where = SqlExpr::Binary("=", SqlExpr::Column("", "CID"),
                            SqlExpr::Param(0));
  auto sql = RenderUpdate(u, SqlDialect::kOracle);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql,
            "UPDATE \"CUSTOMER\" SET \"LAST_NAME\" = 'Smith' "
            "WHERE (\"CID\" = ?)");
}

}  // namespace
}  // namespace aldsp::sql
