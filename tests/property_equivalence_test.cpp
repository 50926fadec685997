// Property-based equivalence testing: a seeded generator produces random
// queries over the running-example schema, and every query must return
// byte-identical XML under three configurations:
//   (1) naive evaluation (no optimizer, no pushdown),
//   (2) optimizer only (view unfolding, joins, PP-k, inverses),
//   (3) optimizer + SQL pushdown.
// This is the system-level invariant behind the paper's whole §4: every
// rewrite and every pushdown must preserve query semantics.

#include <gtest/gtest.h>

#include <random>

#include "compiler/analyzer.h"
#include "optimizer/optimizer.h"
#include "runtime/evaluator.h"
#include "server/fingerprint.h"
#include "sql/pushdown.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace aldsp {
namespace {

using aldsp::testing::RunningExample;

class QueryGenerator {
 public:
  explicit QueryGenerator(uint32_t seed) : rng_(seed) {}

  std::string Next() {
    switch (Pick(8)) {
      case 0:
        return FilterProject();
      case 1:
        return Join();
      case 2:
        return GroupBy();
      case 3:
        return NestedContent();
      case 4:
        return OrderAndPage();
      case 5:
        return ConditionalConstruction();
      case 6:
        return LetArithmetic();
      default:
        return Quantified();
    }
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % static_cast<uint32_t>(n)); }

  std::string StringColumn() {
    static const char* kCols[] = {"CID", "FIRST_NAME", "LAST_NAME", "SSN"};
    return kCols[Pick(4)];
  }

  std::string ValueOp() {
    static const char* kOps[] = {"eq", "ne", "lt", "le", "gt", "ge"};
    return kOps[Pick(6)];
  }

  std::string StringLiteral() {
    static const char* kValues[] = {"CUST001", "CUST004", "CUST010",
                                    "Smith",   "Lee",     "Nobody"};
    return std::string("\"") + kValues[Pick(6)] + "\"";
  }

  std::string IntLiteral() {
    return std::to_string(1000000000LL + Pick(12) * 86400LL);
  }

  // A predicate over $v (a CUSTOMER row).
  std::string Predicate(const std::string& v) {
    std::string p;
    switch (Pick(4)) {
      case 0:
        p = "$" + v + "/" + StringColumn() + " " + ValueOp() + " " +
            StringLiteral();
        break;
      case 1:
        p = "$" + v + "/SINCE " + ValueOp() + " " + IntLiteral();
        break;
      case 2:
        p = "fn:string-length(fn:string($" + v + "/LAST_NAME)) " + ValueOp() +
            " " + std::to_string(Pick(8));
        break;
      default:
        p = "fn:contains(fn:string($" + v + "/" + StringColumn() + "), \"" +
            std::string(1, static_cast<char>('A' + Pick(26))) + "\")";
        break;
    }
    if (Pick(3) == 0) {
      p = "(" + p + (Pick(2) == 0 ? " and " : " or ") + Predicate(v) + ")";
    }
    return p;
  }

  std::string Projection(const std::string& v) {
    switch (Pick(3)) {
      case 0:
        return "fn:data($" + v + "/" + StringColumn() + ")";
      case 1:
        return "<R><A>{fn:data($" + v + "/" + StringColumn() +
               ")}</A><B>{fn:data($" + v + "/SINCE)}</B></R>";
      default:
        return "$" + v + "/" + StringColumn();
    }
  }

  std::string FilterProject() {
    return "for $c in ns3:CUSTOMER() where " + Predicate("c") + " return " +
           Projection("c");
  }

  std::string Join() {
    std::string q = "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
                    "where $c/CID eq $o/CID";
    if (Pick(2) == 0) q += " and " + Predicate("c");
    q += " return <CO><K>{fn:data($o/OID)}</K><N>{fn:data($c/LAST_NAME)}"
         "</N></CO>";
    return q;
  }

  std::string GroupBy() {
    static const char* kAggs[] = {"fn:count($p)", "fn:count($p)",
                                  "fn:min($p/CID)", "fn:max($p/LAST_NAME)"};
    std::string agg = kAggs[Pick(4)];
    return "for $c in ns3:CUSTOMER() group $c as $p by $c/" + StringColumn() +
           " as $k order by $k return <G><K>{$k}</K><V>{" + agg + "}</V></G>";
  }

  std::string NestedContent() {
    std::string q = "for $c in ns3:CUSTOMER() ";
    if (Pick(2) == 0) q += "where " + Predicate("c") + " ";
    q += "return <P><CID>{fn:data($c/CID)}</CID><OS>{";
    if (Pick(2) == 0) {
      q += "for $o in ns3:ORDER() where $o/CID eq $c/CID return $o/OID";
    } else {
      q += "fn:count(for $o in ns3:ORDER() where $o/CID eq $c/CID "
           "return $o)";
    }
    q += "}</OS></P>";
    return q;
  }

  std::string OrderAndPage() {
    std::string inner = "for $c in ns3:CUSTOMER() order by $c/" +
                        StringColumn() +
                        (Pick(2) == 0 ? " descending" : "") +
                        ", $c/CID return <X>{fn:data($c/CID)}</X>";
    return "subsequence(" + inner + ", " + std::to_string(1 + Pick(6)) + ", " +
           std::to_string(1 + Pick(8)) + ")";
  }

  std::string ConditionalConstruction() {
    // <E?> plus if/then/else over values.
    return "for $c in ns3:CUSTOMER() return <P>"
           "<CID>{fn:data($c/CID)}</CID>"
           "<MAYBE?>{for $o in ns3:ORDER() where $o/CID eq $c/CID "
           "return fn:data($o/OID)}</MAYBE>"
           "<TAG>{if (" + Predicate("c") +
           ") then \"hit\" else \"miss\"}</TAG></P>";
  }

  std::string LetArithmetic() {
    return "for $c in ns3:CUSTOMER() "
           "let $n := fn:count(for $o in ns3:ORDER() "
           "where $o/CID eq $c/CID return $o) "
           "let $score := $n * " + std::to_string(1 + Pick(5)) +
           " + fn:string-length(fn:string($c/LAST_NAME)) "
           "where $score ge " + std::to_string(Pick(10)) +
           " return <S><C>{fn:data($c/CID)}</C><V>{$score}</V></S>";
  }

  std::string Quantified() {
    return "for $c in ns3:CUSTOMER() where " +
           std::string(Pick(2) == 0 ? "some" : "every") +
           " $o in ns3:ORDER() satisfies $o/CID " +
           std::string(Pick(2) == 0 ? "eq" : "ne") +
           " $c/CID return fn:data($c/CID)";
  }

  std::mt19937 rng_;
};

class EquivalenceProperty : public ::testing::TestWithParam<uint32_t> {};

// Optimizes `query` with the default max_passes N and with N + 1. Both
// runs must reach the optimizer's fixpoint below the bound and pick the
// same plan: a rule that reports `changed` without a real change would
// pin the loop at the bound and make the plan depend on its parity.
void ExpectOptimizerConverges(RunningExample& env, const std::string& query) {
  SCOPED_TRACE(query);
  const int n = optimizer::OptimizerOptions{}.max_passes;
  uint64_t fingerprint[2] = {0, 0};
  for (int extra = 0; extra < 2; ++extra) {
    auto parsed = xquery::ParseExpression(query);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    xquery::ExprPtr e = *parsed;
    DiagnosticBag bag;
    compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
    ASSERT_TRUE(analyzer.Analyze(e, {}).ok()) << bag.ToString();
    optimizer::OptimizerOptions options;
    options.max_passes = n + extra;
    optimizer::Optimizer opt(&env.functions, &env.schemas, nullptr, options);
    optimizer::OptimizeStats stats;
    ASSERT_TRUE(opt.Optimize(e, &stats).ok());
    EXPECT_TRUE(stats.converged);
    EXPECT_LT(stats.passes, n);
    fingerprint[extra] = server::PlanFingerprint(*e);
  }
  EXPECT_EQ(fingerprint[0], fingerprint[1]);
}

TEST_P(EquivalenceProperty, RandomQueriesConvergeBelowMaxPasses) {
  RunningExample env(12, 3);
  QueryGenerator gen(GetParam() * 7919 + 17);
  for (int i = 0; i < 8; ++i) ExpectOptimizerConverges(env, gen.Next());
}

// The running example (paper Figure 3): the profile view, its keyed read
// method, and filters and joins over the unfolded view.
TEST(OptimizerConvergence, RunningExampleConvergesBelowMaxPasses) {
  RunningExample env(6, 3);
  ASSERT_TRUE(env.LoadModule(aldsp::testing::kFigure3ProfileModule).ok());
  for (const char* query : {
           "tns:getProfile()",
           "tns:getProfileByID(\"CUST002\")",
           "for $p in tns:getProfile() where $p/CID eq \"CUST003\" "
           "and $p/LAST_NAME ne \"Lee\" return $p",
           "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
           "where $c/SINCE ge 1000000000 and $c/LAST_NAME ne \"Lee\" "
           "and $o/CID eq $c/CID return <R>{$c/CID}{$o/OID}</R>",
       }) {
    ExpectOptimizerConverges(env, query);
  }
}

TEST_P(EquivalenceProperty, RandomQueriesAgreeAcrossPlans) {
  RunningExample env(12, 3);
  QueryGenerator gen(GetParam() * 7919 + 17);
  for (int i = 0; i < 8; ++i) {
    std::string query = gen.Next();
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " query " +
                 std::to_string(i) + ": " + query);

    auto parse = [&]() -> xquery::ExprPtr {
      auto parsed = xquery::ParseExpression(query);
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      xquery::ExprPtr e = *parsed;
      DiagnosticBag bag;
      compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
      EXPECT_TRUE(analyzer.Analyze(e, {}).ok()) << bag.ToString();
      return e;
    };

    // (1) naive
    xquery::ExprPtr naive = parse();
    auto r1 = runtime::Evaluate(*naive, env.ctx);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();

    // (2) optimized
    xquery::ExprPtr optimized = parse();
    optimizer::Optimizer opt(&env.functions, &env.schemas, nullptr, {});
    ASSERT_TRUE(opt.Optimize(optimized).ok());
    auto r2 = runtime::Evaluate(*optimized, env.ctx);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString() << "\nplan: "
                         << xquery::DebugString(*optimized);

    // (3) optimized + pushed
    xquery::ExprPtr pushed = xquery::CloneExpr(optimized);
    ASSERT_TRUE(sql::PushdownRewrite(pushed, &env.functions).ok());
    DiagnosticBag bag;
    compiler::Analyzer reanalyzer(&env.functions, &env.schemas, &bag);
    ASSERT_TRUE(reanalyzer.Analyze(pushed, {}).ok())
        << bag.ToString() << "\nplan: " << xquery::DebugString(*pushed);
    auto r3 = runtime::Evaluate(*pushed, env.ctx);
    ASSERT_TRUE(r3.ok()) << r3.status().ToString() << "\nplan: "
                         << xquery::DebugString(*pushed);

    std::string x1 = xml::SerializeSequence(*r1);
    EXPECT_EQ(x1, xml::SerializeSequence(*r2))
        << "optimizer changed semantics\nplan: "
        << xquery::DebugString(*optimized);
    EXPECT_EQ(x1, xml::SerializeSequence(*r3))
        << "pushdown changed semantics\nplan: "
        << xquery::DebugString(*pushed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceProperty,
                         ::testing::Range(0u, 48u));

}  // namespace
}  // namespace aldsp
