#include <gtest/gtest.h>

#include "optimizer/expr_utils.h"
#include "optimizer/optimizer.h"
#include "sql/pushdown.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace aldsp::optimizer {
namespace {

using aldsp::testing::RunningExample;
using xquery::Clause;
using xquery::ExprKind;
using xquery::ExprPtr;

// Parses + analyzes a query in the running-example environment.
ExprPtr Analyzed(RunningExample& env, const std::string& query) {
  auto parsed = xquery::ParseExpression(query);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExprPtr e = parsed.value();
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  Status st = analyzer.Analyze(e, {});
  EXPECT_TRUE(st.ok()) << st.ToString() << "\n" << bag.ToString();
  return e;
}

ExprPtr OptimizedExpr(RunningExample& env, const std::string& query,
                      OptimizerOptions options = {}) {
  ExprPtr e = Analyzed(env, query);
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  Status st = opt.Optimize(e);
  EXPECT_TRUE(st.ok()) << st.ToString() << "\nquery: " << query;
  return e;
}

// Runs a query unoptimized and optimized; both must produce identical XML.
void ExpectEquivalent(RunningExample& env, const std::string& query,
                      OptimizerOptions options = {}) {
  auto plain = env.Run(query);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString() << "\n" << query;
  ExprPtr optimized = OptimizedExpr(env, query, options);
  auto fast = runtime::Evaluate(*optimized, env.ctx);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString() << "\nplan: "
                         << xquery::DebugString(*optimized);
  EXPECT_EQ(xml::SerializeSequence(*plain), xml::SerializeSequence(*fast))
      << "query: " << query << "\nplan: " << xquery::DebugString(*optimized);
}

TEST(ExprUtilsTest, FreeVarsRespectScoping) {
  // $c is bound; $id and $other are free (parse-only: analysis would
  // reject the unbound variables).
  auto parsed = xquery::ParseExpression(
      "for $c in ns3:CUSTOMER() where $c/CID eq $id "
      "return ($c/LAST_NAME, $other)");
  ASSERT_TRUE(parsed.ok());
  auto free = FreeVars(**parsed);
  EXPECT_EQ(free.count("c"), 0u);
  EXPECT_EQ(free.count("id"), 1u);
  EXPECT_EQ(free.count("other"), 1u);
}

TEST(ExprUtilsTest, SubstituteRespectsShadowing) {
  auto parsed = xquery::ParseExpression(
      "($x, for $x in (1,2) return $x, $x)");
  ASSERT_TRUE(parsed.ok());
  ExprPtr e = *parsed;
  SubstituteVar(e, "x", xquery::MakeLiteral(xml::AtomicValue::Integer(9)));
  std::string printed = xquery::DebugString(*e);
  // Outer $x replaced; inner loop variable untouched.
  EXPECT_EQ(printed, "(9, for $x in (1, 2) return $x, 9)");
}

TEST(ExprUtilsTest, RenameBoundVarsMakesNamesUnique) {
  auto parsed = xquery::ParseExpression(
      "for $x in (1,2) let $y := $x return ($x, $y)");
  ASSERT_TRUE(parsed.ok());
  ExprPtr e = *parsed;
  int serial = 0;
  RenameBoundVars(e, &serial);
  EXPECT_EQ(serial, 2);
  std::string printed = xquery::DebugString(*e);
  EXPECT_NE(printed.find("x#0"), std::string::npos);
  EXPECT_NE(printed.find("y#1"), std::string::npos);
  EXPECT_EQ(FreeVars(*e).size(), 0u);
}

TEST(OptimizerTest, ConstantFolding) {
  RunningExample env;
  ExprPtr e = OptimizedExpr(env, "1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->literal.AsInteger(), 7);
  ExprPtr c = OptimizedExpr(env, "if (2 gt 1) then \"a\" else \"b\"");
  ASSERT_EQ(c->kind, ExprKind::kLiteral);
  EXPECT_EQ(c->literal.AsString(), "a");
}

TEST(OptimizerTest, SourceAccessElimination) {
  // The paper's §4.2 example: navigating into a constructed element must
  // drop the ORDERS construction so its source call is never made.
  RunningExample env(3);
  const char* q =
      "for $c in ns3:CUSTOMER() "
      "let $x := <CUSTOMER>"
      "<LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>"
      "<ORDERS>{ns3:getORDER($c)}</ORDERS>"
      "</CUSTOMER> "
      "return fn:data($x/LAST_NAME)";
  ExprPtr e = OptimizedExpr(env, q);
  EXPECT_FALSE(ContainsCallTo(*e, "ns3:getORDER"))
      << xquery::DebugString(*e);
  // And the optimized query still computes the right answer.
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  // No ORDER fetches happened.
  EXPECT_EQ(env.customer_db->stats().statements.load(), 1);
}

TEST(OptimizerTest, ViewUnfoldingPushesPredicateIntoView) {
  RunningExample env(5);
  ASSERT_TRUE(env
                  .LoadModule(R"(
declare function tns:names() as element(N)* {
  for $c in ns3:CUSTOMER()
  return <N><CID>{fn:data($c/CID)}</CID>
           <ORDERS>{ns3:getORDER($c)}</ORDERS></N>
};)")
                  .ok());
  // Selecting only CID through the view must not fetch orders.
  ExprPtr e = OptimizedExpr(env, "fn:data(tns:names()/CID)");
  EXPECT_FALSE(ContainsCallTo(*e, "tns:names")) << xquery::DebugString(*e);
  EXPECT_FALSE(ContainsCallTo(*e, "ns3:getORDER")) << xquery::DebugString(*e);
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 5u);
}

TEST(OptimizerTest, FilterOnViewBecomesWhere) {
  RunningExample env(5);
  ASSERT_TRUE(env
                  .LoadModule(R"(
declare function tns:all() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P><CID>{fn:data($c/CID)}</CID></P>
};)")
                  .ok());
  ExprPtr e = OptimizedExpr(env, "tns:all()[CID eq \"CUST002\"]");
  // The filter should be rewritten into the FLWOR as a where clause.
  ASSERT_EQ(e->kind, ExprKind::kFLWOR) << xquery::DebugString(*e);
  bool has_where = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kWhere) has_where = true;
  }
  EXPECT_TRUE(has_where) << xquery::DebugString(*e);
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
}

TEST(OptimizerTest, JoinIntroduction) {
  RunningExample env(5);
  ExprPtr e = OptimizedExpr(env,
                            "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
                            "where $c/CID eq $o/CID "
                            "return <CO>{fn:data($o/OID)}</CO>",
                            [] {
                              OptimizerOptions o;
                              o.convert_ppk = false;  // keep a plain join
                              return o;
                            }());
  ASSERT_EQ(e->kind, ExprKind::kFLWOR);
  bool has_join = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kJoin) {
      has_join = true;
      EXPECT_EQ(cl.equi_keys.size(), 1u);
      EXPECT_FALSE(cl.left_outer);
    }
    EXPECT_NE(cl.kind, Clause::Kind::kWhere);  // consumed by the join
  }
  EXPECT_TRUE(has_join) << xquery::DebugString(*e);
}

TEST(OptimizerTest, PPkConversionForRelationalRightSide) {
  RunningExample env(5);
  ExprPtr e = OptimizedExpr(env,
                            "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
                            "where $c/CID eq $o/CID "
                            "return <CO>{fn:data($o/OID)}</CO>");
  bool has_ppk = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kJoin && cl.ppk_fetch != nullptr) {
      has_ppk = true;
      EXPECT_EQ(cl.method, xquery::JoinMethod::kPPkIndexNestedLoop);
      EXPECT_EQ(cl.ppk_block_size, 20);  // the paper's default k
      EXPECT_EQ(cl.ppk_fetch->in_column, "CID");
      EXPECT_EQ(cl.ppk_fetch->source, "customer_db");
    }
  }
  EXPECT_TRUE(has_ppk) << xquery::DebugString(*e);
  // Results equal the naive plan.
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 7u);  // 1+2+3+0+1 orders
}

TEST(OptimizerTest, InverseFunctionRewrite) {
  // The paper's §4.5 example: int2date($c/SINCE) gt $start becomes
  // $c/SINCE gt date2int($start) — pushable.
  RunningExample env(3);
  ExprPtr e = OptimizedExpr(
      env,
      "for $c in ns3:CUSTOMER() "
      "where ns1:int2date($c/SINCE) gt (\"2001-09-09T01:46:40\" cast as "
      "xs:dateTime) "
      "return fn:data($c/CID)");
  EXPECT_FALSE(ContainsCallTo(*e, "ns1:int2date")) << xquery::DebugString(*e);
  EXPECT_TRUE(ContainsCallTo(*e, "ns1:date2int")) << xquery::DebugString(*e);
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // SINCE = 1000000000 + i*86400; threshold 1000000000 -> all 3 match.
  EXPECT_EQ(r->size(), 3u);
}

TEST(OptimizerTest, InverseCancellation) {
  RunningExample env;
  ExprPtr e = OptimizedExpr(env, "ns1:date2int(ns1:int2date(12345))");
  ASSERT_EQ(e->kind, ExprKind::kLiteral) << xquery::DebugString(*e);
  EXPECT_EQ(e->literal.AsInteger(), 12345);
}

TEST(OptimizerTest, ClusteringDetectionOnPrimaryKey) {
  RunningExample env(5);
  // Grouping by the scan's primary key: streaming group-by applies.
  ExprPtr e = OptimizedExpr(env,
                            "for $c in ns3:CUSTOMER() "
                            "group $c as $p by $c/CID as $k "
                            "return <G>{$k, fn:count($p)}</G>");
  bool clustered = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kGroupBy) clustered = cl.pre_clustered;
  }
  EXPECT_TRUE(clustered) << xquery::DebugString(*e);
  // Grouping by LAST_NAME (non-key): must NOT be marked clustered.
  ExprPtr e2 = OptimizedExpr(env,
                             "for $c in ns3:CUSTOMER() "
                             "group $c as $p by $c/LAST_NAME as $k "
                             "return <G>{$k, fn:count($p)}</G>");
  for (const auto& cl : e2->clauses) {
    if (cl.kind == Clause::Kind::kGroupBy) EXPECT_FALSE(cl.pre_clustered);
  }
}

TEST(OptimizerTest, ViewPlanCacheReusesPartialPlans) {
  RunningExample env(3);
  ASSERT_TRUE(env
                  .LoadModule(R"(
declare function tns:v() as element(P)* {
  for $c in ns3:CUSTOMER() return <P><CID>{fn:data($c/CID)}</CID></P>
};)")
                  .ok());
  ViewPlanCache cache;
  Optimizer opt(&env.functions, &env.schemas, &cache);
  ExprPtr q1 = Analyzed(env, "tns:v()[CID eq \"CUST001\"]");
  ASSERT_TRUE(opt.Optimize(q1).ok());
  EXPECT_EQ(cache.size(), 1u);
  int64_t misses_after_first = cache.misses();
  ExprPtr q2 = Analyzed(env, "tns:v()[CID eq \"CUST002\"]");
  ASSERT_TRUE(opt.Optimize(q2).ok());
  EXPECT_GT(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), misses_after_first);
}

TEST(OptimizerTest, EquivalenceSuite) {
  RunningExample env(8, 3);
  const char* queries[] = {
      // Plain scans and filters.
      "for $c in ns3:CUSTOMER() return fn:data($c/CID)",
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" return "
      "fn:data($c/FIRST_NAME)",
      "fn:data(ns3:CUSTOMER()[CID eq \"CUST003\"]/LAST_NAME)",
      // Joins (introduced + PP-k converted).
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() where $c/CID eq $o/CID "
      "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>",
      // Cross-database join.
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID "
      "return <X>{fn:data($c/CID)}{fn:data($cc/CCN)}</X>",
      // Group-by (pre-clustered and not).
      "for $c in ns3:CUSTOMER() group $c as $p by $c/LAST_NAME as $l "
      "order by $l return <G name=\"{$l}\">{fn:count($p)}</G>",
      "for $c in ns3:CUSTOMER() group $c as $p by $c/CID as $k "
      "order by $k return <G>{$k, fn:count($p)}</G>",
      // Nested construction with navigation functions.
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST003\" "
      "return <P><CID>{fn:data($c/CID)}</CID>"
      "<ORDERS>{ns3:getORDER($c)}</ORDERS></P>",
      // Order by + subsequence.
      "let $cs := for $c in ns3:CUSTOMER() order by $c/LAST_NAME "
      "return fn:data($c/CID) return subsequence($cs, 2, 3)",
      // Quantified.
      "for $c in ns3:CUSTOMER() "
      "where some $o in ns3:ORDER() satisfies $c/CID eq $o/CID "
      "return fn:data($c/CID)",
      // Conditional construction.
      "for $c in ns3:CUSTOMER() return <P><F?>{fn:data($c/FIRST_NAME)}</F>"
      "</P>",
      // Inverse functions.
      "for $c in ns3:CUSTOMER() "
      "where ns1:int2date($c/SINCE) gt ns1:int2date(1000086400) "
      "return fn:data($c/CID)",
  };
  for (const char* q : queries) {
    ExpectEquivalent(env, q);
  }
}

// Compiles `query` the way the server does: analyze, optimize, push SQL
// down, re-analyze.
Result<ExprPtr> CompilePushed(RunningExample& env, const std::string& query) {
  ALDSP_ASSIGN_OR_RETURN(ExprPtr e, xquery::ParseExpression(query));
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ALDSP_RETURN_NOT_OK(analyzer.Analyze(e, {}));
  Optimizer opt(&env.functions, &env.schemas, nullptr);
  ALDSP_RETURN_NOT_OK(opt.Optimize(e));
  ALDSP_RETURN_NOT_OK(sql::PushdownRewrite(e, &env.functions));
  DiagnosticBag reanalysis;
  compiler::Analyzer reanalyzer(&env.functions, &env.schemas, &reanalysis);
  ALDSP_RETURN_NOT_OK(reanalyzer.Analyze(e, {}));
  return e;
}

// True if some SQL scan of `table` in `e` carries a WHERE clause.
bool ScanFiltered(ExprPtr& e, const std::string& table) {
  if (e->kind == ExprKind::kSqlQuery &&
      e->sql()->select->from.table_name == table &&
      e->sql()->select->where != nullptr) {
    return true;
  }
  bool found = false;
  xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
    if (c && !found) found = ScanFiltered(c, table);
  });
  return found;
}

// The naive plan and the optimized, pushed-down plan give the same bytes,
// or fail with the same status. Returns whether the compiled plan
// filters `table` in SQL.
bool ExpectPushedEquivalent(RunningExample& env, const std::string& query,
                            const std::string& table = "CUSTOMER") {
  auto plain = env.Run(query);
  Result<ExprPtr> plan = CompilePushed(env, query);
  Result<xml::Sequence> fast =
      plan.ok() ? runtime::Evaluate(**plan, env.ctx)
                : Result<xml::Sequence>(plan.status());
  if (!plain.ok()) {
    EXPECT_FALSE(fast.ok()) << query;
    EXPECT_EQ(plain.status().ToString(), fast.status().ToString()) << query;
    return false;
  }
  EXPECT_TRUE(fast.ok()) << query << "\n" << fast.status().ToString();
  if (!fast.ok()) return false;
  EXPECT_EQ(xml::SerializeSequence(*plain), xml::SerializeSequence(*fast))
      << query << "\nplan: " << xquery::DebugString(**plan);
  return ScanFiltered(*plan, table);
}

// The full Figure 3 view: a filter on a constructed child reaches the
// CUSTOMER scan only when atomizing that child is exactly its cheap
// content; every other filter stays in the mid-tier. Both ways the
// results match the naive plan.
TEST(OptimizerTest, Figure3ProfileOptimizedEquivalence) {
  RunningExample env(6, 3);
  // A customer without a last name: its <LAST_NAME/> atomizes to
  // xs:untypedAtomic(""), not to the empty column value.
  ASSERT_TRUE(env.customer_db
                  ->InsertRow("CUSTOMER", {relational::Cell::Str("CUST900"),
                                           relational::Cell::Str("Zed"),
                                           relational::Cell::Null(),
                                           relational::Cell::Str("SSN-900"),
                                           relational::Cell::Int(1000000000)})
                  .ok());
  ASSERT_TRUE(env.LoadModule(aldsp::testing::kFigure3ProfileModule).ok());
  const char* module = R"(
declare function tns:shapes() as element(S)* {
  for $c in ns3:CUSTOMER()
  return
    <S>
      <CID>{fn:data($c/CID)}</CID>
      <FIRST?>{fn:data($c/FIRST_NAME)}</FIRST>
      <TWICE>{fn:data($c/CID)}</TWICE>
      <TWICE>{fn:data($c/FIRST_NAME)}</TWICE>
      <DAYS>{fn:data($c/SINCE)}</DAYS>
    </S>
};
declare function tns:days() as element(D)* {
  for $c in ns3:CUSTOMER()
  return <D><CID>{fn:data($c/CID)}</CID><DAYS>{fn:data($c/SINCE)}</DAYS></D>
};
declare function tns:mixed() as element(M)* {
  for $o in ns3:ORDER()
  return <M>{fn:data($o/CID)}<OID>{fn:data($o/OID)}</OID>
    <C>{ns3:CUSTOMER()[CID eq $o/CID]}</C></M>
};
declare function tns:orders() as element(O)* {
  for $o in ns3:ORDER()
  return <O><OID>{fn:data($o/OID)}</OID><CID>{fn:data($o/CID)}</CID></O>
};
)";
  ASSERT_TRUE(env.LoadModule(module).ok());
  ExpectPushedEquivalent(env, "tns:getProfile()");

  // Pushed: exactly-one and where-guarded optional cheap content.
  EXPECT_TRUE(ExpectPushedEquivalent(env, "tns:getProfileByID(\"CUST002\")"));
  EXPECT_TRUE(ExpectPushedEquivalent(env, "tns:getProfileByID(\"NOPE\")"));
  EXPECT_TRUE(
      ExpectPushedEquivalent(env, "tns:getProfile()[LAST_NAME eq \"Lee\"]"));
  EXPECT_TRUE(ExpectPushedEquivalent(
      env,
      "for $p in tns:getProfile() where $p/CID eq \"CUST003\" return $p"));

  // Not pushed: a source call (not cheap), element content (not atomic),
  // or a comparison an empty <LAST_NAME/> would satisfy.
  EXPECT_FALSE(ExpectPushedEquivalent(env, "tns:getProfile()[RATING eq 630]"));
  EXPECT_FALSE(ExpectPushedEquivalent(env, "tns:getProfile()[ORDERS eq \"\"]"));
  EXPECT_FALSE(ExpectPushedEquivalent(
      env,
      "tns:getProfile()[SINCE gt (\"2001-09-10T01:46:40\" cast as "
      "xs:dateTime)]"));
  EXPECT_FALSE(
      ExpectPushedEquivalent(env, "tns:getProfile()[LAST_NAME ne \"Lee\"]"));
  EXPECT_FALSE(
      ExpectPushedEquivalent(env, "tns:getProfile()[LAST_NAME eq \"\"]"));
  EXPECT_TRUE(ExpectPushedEquivalent(
      env, "fn:data(tns:getProfile()[CID eq \"CUST900\"]/LAST_NAME)"));

  // A conditional <E?> part and two same-named parts stay unreduced.
  EXPECT_FALSE(ExpectPushedEquivalent(env, "tns:shapes()[FIRST eq \"Bob\"]"));
  EXPECT_FALSE(ExpectPushedEquivalent(env, "tns:shapes()[TWICE = \"Bob\"]"));
  // A value comparison over two parts fails alike in both plans.
  EXPECT_FALSE(ExpectPushedEquivalent(env, "tns:shapes()[TWICE eq \"Bob\"]"));
  // The grammar has no node comparisons: `is` fails alike in both plans.
  EXPECT_FALSE(ExpectPushedEquivalent(env, "tns:shapes()[CID is CID]"));

  // An integer-typed child: against an integer literal it reaches the
  // ORDER scan; against a string literal both plans fail alike.
  EXPECT_TRUE(ExpectPushedEquivalent(env, "tns:orders()[OID eq 3]", "ORDER"));
  EXPECT_FALSE(
      ExpectPushedEquivalent(env, "tns:orders()[OID eq \"3\"]", "ORDER"));
  // Mixed content leaves <M> untyped, so `OID eq "3"` passes analysis and
  // fails per row. The rule must not retype it into a static error (the
  // optimizer would then fall back to the unoptimized plan).
  EXPECT_FALSE(
      ExpectPushedEquivalent(env, "tns:mixed()[OID eq \"3\"]", "ORDER"));
  auto mixed = CompilePushed(env, "tns:mixed()[OID eq \"3\"]");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_FALSE(ContainsCallTo(**mixed, "tns:mixed"))
      << xquery::DebugString(**mixed);
  // A nullable one: an empty <DAYS/> cannot be compared with an integer,
  // so the comparison stays on the constructed element.
  EXPECT_FALSE(ExpectPushedEquivalent(env, "tns:days()[DAYS eq 1000172800]"));
}

// fn:data(<N>{x}</N>) is x only when x is never empty: a NULL column
// leaves <N/>, which atomizes to xs:untypedAtomic(""), not to (). Each
// context that can tell the two apart gives the naive plan's bytes.
TEST(OptimizerTest, DataOnCtorKeepsOptionalContent) {
  RunningExample env(4, 0);
  ASSERT_TRUE(env.customer_db
                  ->InsertRow("CUSTOMER", {relational::Cell::Str("CUST900"),
                                           relational::Cell::Str("Zed"),
                                           relational::Cell::Null(),
                                           relational::Cell::Str("SSN-900"),
                                           relational::Cell::Int(1000000000)})
                  .ok());
  const char* queries[] = {
      // Counting: the NULL row still contributes one item.
      "fn:count(for $c in ns3:CUSTOMER() "
      "return fn:data(<L>{fn:data($c/LAST_NAME)}</L>))",
      // Comparing: "" eq "" holds for the NULL row only.
      "for $c in ns3:CUSTOMER() "
      "where fn:data(<L>{fn:data($c/LAST_NAME)}</L>) eq \"\" "
      "return fn:data($c/CID)",
      // Constructed content: the empty string still takes a separator.
      "for $c in ns3:CUSTOMER() "
      "return <R>{fn:data(<L>{fn:data($c/LAST_NAME)}</L>), \"x\"}</R>",
      // Never-empty content is still reduced, and must agree too.
      "fn:count(for $c in ns3:CUSTOMER() "
      "return fn:data(<C>{fn:data($c/CID)}</C>))",
  };
  for (const char* q : queries) {
    ExpectEquivalent(env, q);
    ExpectPushedEquivalent(env, q);
  }
  // The reduction itself still fires on exactly-one content.
  ExprPtr reduced = OptimizedExpr(
      env, "for $c in ns3:CUSTOMER() return fn:data(<C>{fn:data($c/CID)}</C>)");
  EXPECT_EQ(xquery::DebugString(*reduced).find("<C>"), std::string::npos)
      << xquery::DebugString(*reduced);
}

}  // namespace
}  // namespace aldsp::optimizer
