#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "relational/engine.h"
#include "relational/sql_ast.h"
#include "tests/test_fixtures.h"

namespace aldsp::relational {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;

SelectPtr SelectAllCustomers() {
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Column("t1", "LAST_NAME"), "c2"}};
  return s;
}

TEST(EngineTest, SimpleSelectProject) {
  auto db = MakeCustomerDb(5);
  auto s = SelectAllCustomers();
  s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                             SqlExpr::Literal(Cell::Str("CUST001")));
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].value.AsString(), "CUST001");
  EXPECT_EQ(rs->column_names[0], "c1");
}

TEST(EngineTest, InnerJoinMatchesManualCount) {
  auto db = MakeCustomerDb(10, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kInner,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Column("t2", "OID"), "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Customer i has i%4 orders: 1+2+3+0+1+2+3+0+1+2 = 15.
  EXPECT_EQ(rs->rows.size(), 15u);
}

TEST(EngineTest, LeftOuterJoinKeepsOrderlessCustomers) {
  auto db = MakeCustomerDb(8, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kLeftOuter,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Column("t2", "OID"), "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  // Customers 4 and 8 have zero orders -> one NULL row each.
  size_t nulls = 0;
  for (const auto& row : rs->rows) {
    if (row[1].is_null) ++nulls;
  }
  EXPECT_EQ(nulls, 2u);
  // 1+2+3+0+1+2+3+0 = 12 matched + 2 null rows.
  EXPECT_EQ(rs->rows.size(), 14u);
}

TEST(EngineTest, CaseExpression) {
  auto db = MakeCustomerDb(3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  auto cond = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                              SqlExpr::Literal(Cell::Str("CUST001")));
  s->items = {{SqlExpr::Case({{cond, SqlExpr::Column("t1", "FIRST_NAME")}},
                             SqlExpr::Column("t1", "LAST_NAME")),
               "c1"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
}

TEST(EngineTest, GroupByWithCount) {
  auto db = MakeCustomerDb(8);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->group_by = {SqlExpr::Column("t1", "LAST_NAME")};
  s->items = {{SqlExpr::Column("t1", "LAST_NAME"), "c1"},
              {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);  // 4 distinct last names
  int64_t total = 0;
  for (const auto& row : rs->rows) total += row[1].value.AsInteger();
  EXPECT_EQ(total, 8);
}

TEST(EngineTest, DistinctEqualsGroupBy) {
  auto db = MakeCustomerDb(8);
  auto d = std::make_shared<SelectStmt>();
  d->distinct = true;
  d->from = {"CUSTOMER", nullptr, "t1"};
  d->items = {{SqlExpr::Column("t1", "LAST_NAME"), "c1"}};
  auto rs = db->ExecuteSelect(*d);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
}

TEST(EngineTest, OuterJoinWithAggregation) {
  // Pattern (g): order count per customer, zero included.
  auto db = MakeCustomerDb(8, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kLeftOuter,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->group_by = {SqlExpr::Column("t1", "CID")};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Aggregate(SqlAgg::kCount, SqlExpr::Column("t2", "CID")),
               "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 8u);
  int zero_count = 0;
  for (const auto& row : rs->rows) {
    if (row[1].value.AsInteger() == 0) ++zero_count;
  }
  EXPECT_EQ(zero_count, 2);  // customers 4 and 8
}

TEST(EngineTest, ExistsSemiJoin) {
  // Pattern (h): customers having at least one order.
  auto db = MakeCustomerDb(8, 3);
  auto sub = std::make_shared<SelectStmt>();
  sub->from = {"ORDER", nullptr, "t2"};
  sub->items = {{SqlExpr::Literal(Cell::Int(1)), "c1"}};
  sub->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                               SqlExpr::Column("t2", "CID"));
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"}};
  s->where = SqlExpr::Exists(sub);
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 6u);  // all but customers 4 and 8
}

TEST(EngineTest, OrderByWithRangeImplementsSubsequence) {
  // Pattern (i): page of customers ordered by order count desc.
  auto db = MakeCustomerDb(20, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kLeftOuter,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->group_by = {SqlExpr::Column("t1", "CID")};
  auto count = SqlExpr::Aggregate(SqlAgg::kCount, SqlExpr::Column("t2", "CID"));
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"}, {count, "c2"}};
  s->order_by = {{count->Clone(), true}};
  s->range_start = 3;
  s->range_count = 5;
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 5u);
  // Counts must be non-increasing within the page.
  for (size_t i = 1; i < rs->rows.size(); ++i) {
    EXPECT_GE(rs->rows[i - 1][1].value.AsInteger(),
              rs->rows[i][1].value.AsInteger());
  }
}

TEST(EngineTest, InListAndParams) {
  auto db = MakeCustomerDb(10);
  auto s = SelectAllCustomers();
  s->where = SqlExpr::InList(
      SqlExpr::Column("t1", "CID"),
      {SqlExpr::Param(0), SqlExpr::Param(1), SqlExpr::Param(2)});
  auto rs = db->ExecuteSelect(
      *s, {Cell::Str("CUST002"), Cell::Str("CUST004"), Cell::Str("CUST999")});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 2u);
}

TEST(EngineTest, NullComparisonsAreUnknown) {
  auto db = MakeCustomerDb(3);
  (void)db->InsertRow("CUSTOMER", {Cell::Str("CUST_NULL"), Cell::Null(),
                                   Cell::Null(), Cell::Null(), Cell::Null()});
  auto s = SelectAllCustomers();
  s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "LAST_NAME"),
                             SqlExpr::Column("t1", "LAST_NAME"));
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);  // NULL = NULL is unknown, row filtered

  auto s2 = SelectAllCustomers();
  s2->where = SqlExpr::IsNull(SqlExpr::Column("t1", "LAST_NAME"));
  auto rs2 = db->ExecuteSelect(*s2);
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->rows.size(), 1u);
}

TEST(EngineTest, AggregatesSkipNulls) {
  Database db("t");
  TableDef def;
  def.name = "T";
  def.columns = {{"A", ColumnType::kInteger, true}};
  ASSERT_TRUE(db.CreateTable(def).ok());
  ASSERT_TRUE(db.InsertRow("T", {Cell::Int(1)}).ok());
  ASSERT_TRUE(db.InsertRow("T", {Cell::Null()}).ok());
  ASSERT_TRUE(db.InsertRow("T", {Cell::Int(3)}).ok());
  auto s = std::make_shared<SelectStmt>();
  s->from = {"T", nullptr, "t1"};
  s->items = {
      {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "n"},
      {SqlExpr::Aggregate(SqlAgg::kCount, SqlExpr::Column("t1", "A")), "c"},
      {SqlExpr::Aggregate(SqlAgg::kSum, SqlExpr::Column("t1", "A")), "s"},
      {SqlExpr::Aggregate(SqlAgg::kAvg, SqlExpr::Column("t1", "A")), "a"},
      {SqlExpr::Aggregate(SqlAgg::kMin, SqlExpr::Column("t1", "A")), "mn"},
      {SqlExpr::Aggregate(SqlAgg::kMax, SqlExpr::Column("t1", "A")), "mx"}};
  auto rs = db.ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  const Row& r = rs->rows[0];
  EXPECT_EQ(r[0].value.AsInteger(), 3);
  EXPECT_EQ(r[1].value.AsInteger(), 2);
  EXPECT_EQ(r[2].value.AsInteger(), 4);
  EXPECT_DOUBLE_EQ(r[3].value.AsDouble(), 2.0);
  EXPECT_EQ(r[4].value.AsInteger(), 1);
  EXPECT_EQ(r[5].value.AsInteger(), 3);
}

TEST(EngineTest, GlobalAggregateOnEmptyTable) {
  Database db("t");
  TableDef def;
  def.name = "T";
  def.columns = {{"A", ColumnType::kInteger, true}};
  ASSERT_TRUE(db.CreateTable(def).ok());
  auto s = std::make_shared<SelectStmt>();
  s->from = {"T", nullptr, "t1"};
  s->items = {
      {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "n"},
      {SqlExpr::Aggregate(SqlAgg::kSum, SqlExpr::Column("t1", "A")), "s"}};
  auto rs = db.ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].value.AsInteger(), 0);
  EXPECT_TRUE(rs->rows[0][1].is_null);
}

TEST(EngineTest, DerivedTable) {
  auto db = MakeCustomerDb(6);
  auto inner = SelectAllCustomers();
  auto s = std::make_shared<SelectStmt>();
  s->from = {"", inner, "d"};
  s->items = {{SqlExpr::Column("d", "c2"), "name"}};
  s->where = SqlExpr::Binary("=", SqlExpr::Column("d", "c1"),
                             SqlExpr::Literal(Cell::Str("CUST003")));
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
}

TEST(EngineTest, UpdateWithWhere) {
  auto db = MakeCustomerDb(5);
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("Smith"))}};
  u.where = SqlExpr::Binary("=", SqlExpr::Column("CUSTOMER", "CID"),
                            SqlExpr::Literal(Cell::Str("CUST002")));
  auto n = db->ExecuteUpdate(u);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  auto rows = db->TableData("CUSTOMER");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[1][2].value.AsString(), "Smith");
}

TEST(EngineTest, InsertAndDelete) {
  auto db = MakeCustomerDb(2);
  InsertStmt ins;
  ins.table_name = "CUSTOMER";
  ins.columns = {"CID", "LAST_NAME"};
  ins.values = {SqlExpr::Literal(Cell::Str("CUST999")),
                SqlExpr::Literal(Cell::Str("New"))};
  ASSERT_TRUE(db->ExecuteInsert(ins).ok());
  EXPECT_EQ(db->TableData("CUSTOMER")->size(), 3u);

  DeleteStmt del;
  del.table_name = "CUSTOMER";
  del.where = SqlExpr::Binary("=", SqlExpr::Column("CUSTOMER", "CID"),
                              SqlExpr::Literal(Cell::Str("CUST999")));
  auto n = db->ExecuteDelete(del);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  EXPECT_EQ(db->TableData("CUSTOMER")->size(), 2u);
}

TEST(EngineTest, TransactionRollbackRestoresData) {
  auto db = MakeCustomerDb(3);
  ASSERT_TRUE(db->Begin().ok());
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("X"))}};
  ASSERT_TRUE(db->ExecuteUpdate(u).ok());
  ASSERT_TRUE(db->Rollback().ok());
  auto rows = db->TableData("CUSTOMER");
  ASSERT_TRUE(rows.ok());
  EXPECT_NE((*rows)[0][2].value.AsString(), "X");
}

TEST(EngineTest, TransactionCommitKeepsData) {
  auto db = MakeCustomerDb(3);
  ASSERT_TRUE(db->Begin().ok());
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("X"))}};
  ASSERT_TRUE(db->ExecuteUpdate(u).ok());
  ASSERT_TRUE(db->Prepare().ok());
  ASSERT_TRUE(db->Commit().ok());
  auto rows = db->TableData("CUSTOMER");
  EXPECT_EQ((*rows)[0][2].value.AsString(), "X");
}

TEST(EngineTest, PrepareFailureInjection) {
  auto db = MakeCustomerDb(1);
  db->FailNextPrepare(true);
  ASSERT_TRUE(db->Begin().ok());
  EXPECT_FALSE(db->Prepare().ok());
  ASSERT_TRUE(db->Rollback().ok());
}

TEST(EngineTest, StatementFailureInjection) {
  auto db = MakeCustomerDb(1);
  db->FailNextStatements(1);
  auto rs = db->ExecuteSelect(*SelectAllCustomers());
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kSourceError);
  // Next one succeeds.
  EXPECT_TRUE(db->ExecuteSelect(*SelectAllCustomers()).ok());
}

TEST(EngineTest, LatencyAccounting) {
  auto db = MakeCustomerDb(4);
  db->latency_model().roundtrip_micros = 1000;
  db->latency_model().per_row_micros = 10;
  db->latency_model().sleep = false;
  ASSERT_TRUE(db->ExecuteSelect(*SelectAllCustomers()).ok());
  EXPECT_EQ(db->stats().statements.load(), 1);
  EXPECT_EQ(db->stats().rows_shipped.load(), 4);
  EXPECT_EQ(db->stats().simulated_latency_micros.load(), 1000 + 4 * 10);
}

TEST(EngineTest, CrossSchemaErrors) {
  auto db = MakeCustomerDb(1);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"NOPE", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "X"), "c1"}};
  EXPECT_EQ(db->ExecuteSelect(*s).status().code(), StatusCode::kNotFound);

  auto s2 = SelectAllCustomers();
  s2->items.push_back({SqlExpr::Column("t1", "MISSING"), "x"});
  EXPECT_FALSE(db->ExecuteSelect(*s2).ok());
}

TEST(EngineTest, DebugStringRendersSql) {
  auto s = SelectAllCustomers();
  s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                             SqlExpr::Literal(Cell::Str("CUST001")));
  std::string text = DebugString(*s);
  EXPECT_NE(text.find("SELECT"), std::string::npos);
  EXPECT_NE(text.find("\"CUSTOMER\""), std::string::npos);
  EXPECT_NE(text.find("'CUST001'"), std::string::npos);
}

// Two BIGINT tables holding 2^53 and 2^53 + 1, values a double cannot
// tell apart.
std::unique_ptr<Database> MakeBigIntDb() {
  auto db = std::make_unique<Database>("bigint_db");
  constexpr int64_t kBig = int64_t{1} << 53;
  for (const char* table : {"A", "B"}) {
    TableDef def;
    def.name = table;
    def.columns = {{"K", ColumnType::kBigInt, false}};
    EXPECT_TRUE(db->CreateTable(def).ok());
  }
  EXPECT_TRUE(db->InsertRow("A", {Cell::Int(kBig)}).ok());
  EXPECT_TRUE(db->InsertRow("A", {Cell::Int(kBig + 1)}).ok());
  EXPECT_TRUE(db->InsertRow("B", {Cell::Int(kBig + 1)}).ok());
  return db;
}

SelectPtr BigIntJoin(SqlExprPtr condition) {
  auto s = std::make_shared<SelectStmt>();
  s->from = {"A", nullptr, "t1"};
  s->joins.push_back({JoinKind::kInner, {"B", nullptr, "t2"}, condition});
  s->items = {{SqlExpr::Column("t1", "K"), "c1"}};
  return s;
}

TEST(EngineTest, HashJoinAgreesWithNestedLoopPast2To53) {
  auto db = MakeBigIntDb();
  SqlExprPtr eq = SqlExpr::Binary("=", SqlExpr::Column("t1", "K"),
                                  SqlExpr::Column("t2", "K"));
  // An equi conjunct makes the join a hash join; the same predicate
  // behind NOT(<>) is not hashable and runs as a nested loop.
  auto hashed = db->ExecuteSelect(*BigIntJoin(eq));
  auto nested = db->ExecuteSelect(*BigIntJoin(SqlExpr::Not(SqlExpr::Binary(
      "<>", SqlExpr::Column("t1", "K"), SqlExpr::Column("t2", "K")))));
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  ASSERT_EQ(nested->rows.size(), 1u);
  ASSERT_EQ(hashed->rows.size(), 1u);
  EXPECT_EQ(hashed->rows[0][0].value.AsInteger(), (int64_t{1} << 53) + 1);
}

TEST(EngineTest, GroupByAndDistinctSeparateValuesPast2To53) {
  auto db = MakeBigIntDb();
  auto grouped = std::make_shared<SelectStmt>();
  grouped->from = {"A", nullptr, "t1"};
  grouped->group_by = {SqlExpr::Column("t1", "K")};
  grouped->items = {{SqlExpr::Column("t1", "K"), "c1"},
                    {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "c2"}};
  auto g = db->ExecuteSelect(*grouped);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->rows.size(), 2u);

  auto distinct = std::make_shared<SelectStmt>();
  distinct->distinct = true;
  distinct->from = {"A", nullptr, "t1"};
  distinct->items = {{SqlExpr::Column("t1", "K"), "c1"}};
  auto d = db->ExecuteSelect(*distinct);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->rows.size(), 2u);

  auto count = std::make_shared<SelectStmt>();
  count->from = {"A", nullptr, "t1"};
  count->items = {{SqlExpr::Aggregate(SqlAgg::kCount,
                                      SqlExpr::Column("t1", "K"), true),
                   "c1"}};
  auto c = db->ExecuteSelect(*count);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->rows.size(), 1u);
  EXPECT_EQ(c->rows[0][0].value.AsInteger(), 2);
}

// A logical operator over a non-boolean value is a typed RuntimeError,
// never an escaping exception; a failing UPDATE or DELETE leaves the
// table as it was.
TEST(EngineTest, NonBooleanLogicalOperandsAreRuntimeErrors) {
  auto db = MakeCustomerDb(3);
  SqlExprPtr one = SqlExpr::Literal(Cell::Int(1));
  SqlExprPtr yes = SqlExpr::Literal(Cell::Bool(true));
  SqlExprPtr no = SqlExpr::Literal(Cell::Bool(false));
  for (SqlExprPtr where :
       {SqlExpr::Not(one), SqlExpr::Binary("AND", one, yes),
        SqlExpr::Binary("OR", no, one)}) {
    auto s = SelectAllCustomers();
    s->where = where;
    auto rs = db->ExecuteSelect(*s);
    EXPECT_EQ(rs.status().code(), StatusCode::kRuntimeError)
        << DebugString(*where);
  }

  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("Zzyzx"))}};
  u.where = one;
  EXPECT_EQ(db->ExecuteUpdate(u).status().code(), StatusCode::kRuntimeError);

  DeleteStmt del;
  del.table_name = "CUSTOMER";
  del.where = one;
  EXPECT_EQ(db->ExecuteDelete(del).status().code(),
            StatusCode::kRuntimeError);

  auto rows = db->TableData("CUSTOMER");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  for (const auto& row : *rows) EXPECT_NE(row[2].value.AsString(), "Zzyzx");
}

// A write sleeps its simulated round trip after releasing the database
// mutex, as a SELECT does: a concurrent SELECT pays only its own round
// trip, not the rest of the UPDATE's.
TEST(EngineTest, SleptUpdateDoesNotDelayConcurrentSelect) {
  constexpr int64_t kRoundTripMicros = 400'000;
  auto db = MakeCustomerDb(3);
  db->latency_model().roundtrip_micros = kRoundTripMicros;
  db->latency_model().sleep = true;
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("Smith"))}};
  std::thread writer([&] { EXPECT_TRUE(db->ExecuteUpdate(u).ok()); });
  // Let the UPDATE take the mutex and start its round trip.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(db->ExecuteSelect(*SelectAllCustomers()).ok());
  auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  writer.join();
  // Its own round trip plus scheduling slack; behind the UPDATE's sleep it
  // would take another ~350 ms.
  EXPECT_LT(micros, kRoundTripMicros + 150'000);
  // The latency model charged one round trip per statement.
  EXPECT_EQ(db->stats().statements.load(), 2);
  EXPECT_EQ(db->stats().simulated_latency_micros.load(),
            2 * kRoundTripMicros + 3 * db->latency_model().per_row_micros);
}

}  // namespace
}  // namespace aldsp::relational
