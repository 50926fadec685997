#include <gtest/gtest.h>

#include "xquery/ast.h"
#include "xquery/parser.h"

namespace aldsp::xquery {
namespace {

ExprPtr MustParse(const std::string& text) {
  auto r = ParseExpression(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << text;
  return r.ok() ? r.value() : nullptr;
}

TEST(ParserTest, Literals) {
  EXPECT_EQ(MustParse("42")->literal.AsInteger(), 42);
  EXPECT_EQ(MustParse("-7")->literal.AsInteger(), -7);
  EXPECT_EQ(MustParse("3.25")->literal.type(), xml::AtomicType::kDecimal);
  EXPECT_EQ(MustParse("1.5e3")->literal.type(), xml::AtomicType::kDouble);
  EXPECT_EQ(MustParse("\"ab''c\"")->literal.AsString(), "ab''c");
  EXPECT_EQ(MustParse("'it''s'")->literal.AsString(), "it's");
  EXPECT_EQ(MustParse("()")->kind, ExprKind::kEmptySequence);
}

TEST(ParserTest, PathsAndPredicates) {
  ExprPtr e = MustParse("$c/CID");
  ASSERT_EQ(e->kind, ExprKind::kPathStep);
  EXPECT_EQ(e->name, "CID");
  EXPECT_EQ(e->children[0]->kind, ExprKind::kVarRef);

  ExprPtr attr = MustParse("$c/@id");
  EXPECT_TRUE(attr->is_attribute_step);

  ExprPtr filt = MustParse("CUSTOMER()[CID eq $id]");
  ASSERT_EQ(filt->kind, ExprKind::kFilter);
  EXPECT_EQ(filt->children[0]->kind, ExprKind::kFunctionCall);
  EXPECT_EQ(filt->children[1]->kind, ExprKind::kComparison);
  // Bare CID inside the predicate is a step on the context item.
  EXPECT_EQ(filt->children[1]->children[0]->kind, ExprKind::kPathStep);
  EXPECT_EQ(filt->children[1]->children[0]->children[0]->name, ".");
}

TEST(ParserTest, OperatorPrecedence) {
  ExprPtr e = MustParse("1 + 2 * 3 eq 7 and $x or $y");
  ASSERT_EQ(e->kind, ExprKind::kLogical);
  EXPECT_EQ(e->name, "or");
  EXPECT_EQ(e->children[0]->name, "and");
  ExprPtr cmp = e->children[0]->children[0];
  ASSERT_EQ(cmp->kind, ExprKind::kComparison);
  EXPECT_EQ(cmp->name, "eq");
  EXPECT_EQ(cmp->children[0]->name, "+");
  EXPECT_EQ(cmp->children[0]->children[1]->name, "*");
}

TEST(ParserTest, GeneralVsValueComparison) {
  EXPECT_FALSE(MustParse("$a eq $b")->general_comparison);
  EXPECT_TRUE(MustParse("$a = $b")->general_comparison);
  EXPECT_TRUE(MustParse("$a >= $b")->general_comparison);
}

TEST(ParserTest, FLWORWithAllClauses) {
  ExprPtr e = MustParse(
      "for $c in CUSTOMER(), $o in ORDER() "
      "let $n := $c/LAST_NAME "
      "where $c/CID eq $o/CID "
      "order by $n descending "
      "return $o/OID");
  ASSERT_EQ(e->kind, ExprKind::kFLWOR);
  ASSERT_EQ(e->clauses.size(), 5u);
  EXPECT_EQ(e->clauses[0].kind, Clause::Kind::kFor);
  EXPECT_EQ(e->clauses[0].var, "c");
  EXPECT_EQ(e->clauses[1].kind, Clause::Kind::kFor);
  EXPECT_EQ(e->clauses[2].kind, Clause::Kind::kLet);
  EXPECT_EQ(e->clauses[3].kind, Clause::Kind::kWhere);
  EXPECT_EQ(e->clauses[4].kind, Clause::Kind::kOrderBy);
  EXPECT_TRUE(e->clauses[4].order_keys[0].descending);
}

TEST(ParserTest, PositionalVariable) {
  ExprPtr e = MustParse("for $x at $i in $s return $i");
  EXPECT_EQ(e->clauses[0].positional_var, "i");
}

TEST(ParserTest, GroupByClausePaperExample) {
  // Paper §3.1: the FLWGOR grouping query.
  ExprPtr e = MustParse(
      "for $c in CUSTOMER() "
      "let $cid := $c/CID "
      "group $cid as $ids by $c/LAST_NAME as $name "
      "return <CUSTOMER_IDS name=\"{$name}\">{ $ids }</CUSTOMER_IDS>");
  ASSERT_EQ(e->kind, ExprKind::kFLWOR);
  const Clause& g = e->clauses[2];
  ASSERT_EQ(g.kind, Clause::Kind::kGroupBy);
  ASSERT_EQ(g.group_vars.size(), 1u);
  EXPECT_EQ(g.group_vars[0].in_var, "cid");
  EXPECT_EQ(g.group_vars[0].out_var, "ids");
  ASSERT_EQ(g.group_keys.size(), 1u);
  EXPECT_EQ(g.group_keys[0].as_var, "name");
}

TEST(ParserTest, GroupByWithoutVars) {
  // Paper Table 1(f): group by used as DISTINCT.
  ExprPtr e = MustParse(
      "for $c in CUSTOMER() group by $c/LAST_NAME as $l return $l");
  const Clause& g = e->clauses[1];
  ASSERT_EQ(g.kind, Clause::Kind::kGroupBy);
  EXPECT_TRUE(g.group_vars.empty());
  EXPECT_EQ(g.group_keys[0].as_var, "l");
}

TEST(ParserTest, DirectConstructor) {
  ExprPtr e = MustParse(
      "<CUSTOMER_ORDER>{ $c/CID, $o/OID }</CUSTOMER_ORDER>");
  ASSERT_EQ(e->kind, ExprKind::kElementCtor);
  EXPECT_EQ(e->name, "CUSTOMER_ORDER");
  ASSERT_EQ(e->children.size(), 1u);
  EXPECT_EQ(e->children[0]->kind, ExprKind::kSequence);
}

TEST(ParserTest, ConstructorWithAttributesAndNesting) {
  ExprPtr e = MustParse(
      "<PROFILE id=\"{$c/CID}\" kind=\"basic\">"
      "<NAME>{data($c/LAST_NAME)}</NAME>"
      "<EMPTY/>"
      "</PROFILE>");
  ASSERT_EQ(e->kind, ExprKind::kElementCtor);
  ASSERT_GE(e->children.size(), 4u);
  EXPECT_EQ(e->children[0]->kind, ExprKind::kAttributeCtor);
  EXPECT_EQ(e->children[1]->kind, ExprKind::kAttributeCtor);
  EXPECT_EQ(e->children[1]->children[0]->literal.AsString(), "basic");
  EXPECT_EQ(e->children[2]->kind, ExprKind::kElementCtor);
  EXPECT_EQ(e->children[3]->name, "EMPTY");
}

TEST(ParserTest, ConditionalConstructionExtension) {
  // Paper §3.1: <FIRST_NAME?>{$fname}</FIRST_NAME>.
  ExprPtr e = MustParse("<FIRST_NAME?>{$fname}</FIRST_NAME>");
  EXPECT_TRUE(e->conditional);
  ExprPtr a = MustParse("<X a?=\"{$v}\">1</X>");
  EXPECT_TRUE(a->children[0]->conditional);
}

TEST(ParserTest, TextContentBecomesLiteral) {
  ExprPtr e = MustParse("<GREETING>hello world</GREETING>");
  ASSERT_EQ(e->children.size(), 1u);
  EXPECT_EQ(e->children[0]->literal.AsString(), "hello world");
}

TEST(ParserTest, IfThenElse) {
  ExprPtr e = MustParse(
      "if ($c/CID eq \"CUST001\") then $c/FIRST_NAME else $c/LAST_NAME");
  ASSERT_EQ(e->kind, ExprKind::kIf);
  EXPECT_EQ(e->children[1]->name, "FIRST_NAME");
}

TEST(ParserTest, QuantifiedExpression) {
  // Paper Table 2(h).
  ExprPtr e = MustParse(
      "for $c in CUSTOMER() "
      "where some $o in ORDERS() satisfies $c/CID eq $o/CID "
      "return $c/CID");
  const Clause& w = e->clauses[1];
  ASSERT_EQ(w.expr->kind, ExprKind::kQuantified);
  EXPECT_FALSE(w.expr->is_every);
  EXPECT_EQ(w.expr->name, "o");
}

TEST(ParserTest, FunctionCallsAndSubsequence) {
  // Paper Table 2(i) shape.
  ExprPtr e = MustParse(
      "let $cs := for $c in CUSTOMER() "
      "let $oc := count(for $o in ORDER() where $c/CID eq $o/CID return $o) "
      "order by $oc descending "
      "return <CUSTOMER>{ data($c/CID), $oc }</CUSTOMER> "
      "return subsequence($cs, 10, 20)");
  ASSERT_EQ(e->kind, ExprKind::kFLWOR);
  ExprPtr ret = e->children[0];
  ASSERT_EQ(ret->kind, ExprKind::kFunctionCall);
  EXPECT_EQ(ret->name, "subsequence");
  EXPECT_EQ(ret->children.size(), 3u);
}

TEST(ParserTest, CastAndInstanceOf) {
  ExprPtr e = MustParse("$x cast as xs:integer");
  ASSERT_EQ(e->kind, ExprKind::kCastAs);
  EXPECT_EQ(e->extra->type_ref.name, "xs:integer");
  ExprPtr i = MustParse("$x instance of element(CUSTOMER)*");
  ASSERT_EQ(i->kind, ExprKind::kInstanceOf);
  EXPECT_EQ(i->extra->type_ref.occurrence, xsd::Occurrence::kStar);
}

TEST(ParserTest, ParseErrors) {
  EXPECT_FALSE(ParseExpression("for $x in").ok());
  EXPECT_FALSE(ParseExpression("if ($x) then 1").ok());
  EXPECT_FALSE(ParseExpression("<A>{1}</B>").ok());
  EXPECT_FALSE(ParseExpression("$x +").ok());
  EXPECT_FALSE(ParseExpression("1 2").ok());
  EXPECT_FALSE(ParseExpression("some $x in $y satisfied $z").ok());
}

TEST(ParserTest, CommentsAreSkippedAndNest) {
  ExprPtr e = MustParse("(: outer (: inner :) still :) 42");
  EXPECT_EQ(e->literal.AsInteger(), 42);
}

// --- Module parsing ---------------------------------------------------

constexpr const char* kProfileService = R"(
xquery version "1.0" encoding "UTF8";

declare namespace tns="urn:profile";
import schema namespace ns0="urn:profileSchema";
declare namespace ns2="urn:billing";
declare namespace ns3="urn:customer";
declare namespace ns4="urn:rating";
declare namespace ns5="urn:ratingSchema";

(::pragma function kind="read" isPrimary="true" ::)
declare function
tns:getProfile() as element(ns0:PROFILE)* {
  for $CUSTOMER in ns3:CUSTOMER()
  return
    <tns:PROFILE>
      <CID>{fn:data($CUSTOMER/CID)}</CID>
      <LAST_NAME>{ fn:data($CUSTOMER/LAST_NAME) }</LAST_NAME>
      <ORDERS>{ ns3:getORDER($CUSTOMER) }</ORDERS>
      <CREDIT_CARDS>{ ns2:CREDIT_CARD()[CID eq $CUSTOMER/CID] }</CREDIT_CARDS>
      <RATING>{
        fn:data(ns4:getRating(
          <ns5:getRating>
            <ns5:lName>{ data($CUSTOMER/LAST_NAME) }</ns5:lName>
            <ns5:ssn>{ data($CUSTOMER/SSN) }</ns5:ssn>
          </ns5:getRating>)/ns5:getRatingResult)
      }</RATING>
    </tns:PROFILE>
};

(::pragma function kind="read" ::)
declare function
tns:getProfileByID($id as xs:string) as element(ns0:PROFILE)* {
  tns:getProfile()[CID eq $id]
};
)";

TEST(ParserTest, ParsesFigure3DataService) {
  auto m = ParseModule(kProfileService);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->version, "1.0");
  EXPECT_EQ(m->namespaces.size(), 5u);
  EXPECT_EQ(m->schema_imports.size(), 1u);
  ASSERT_EQ(m->functions.size(), 2u);
  const FunctionDecl& get_profile = m->functions[0];
  EXPECT_EQ(get_profile.name, "tns:getProfile");
  EXPECT_EQ(get_profile.PragmaKind(), "read");
  EXPECT_EQ(get_profile.return_type.name, "ns0:PROFILE");
  EXPECT_EQ(get_profile.return_type.occurrence, xsd::Occurrence::kStar);
  ASSERT_NE(get_profile.body, nullptr);
  EXPECT_EQ(get_profile.body->kind, ExprKind::kFLWOR);
  const FunctionDecl& by_id = m->functions[1];
  ASSERT_EQ(by_id.params.size(), 1u);
  EXPECT_EQ(by_id.params[0].name, "id");
  EXPECT_EQ(by_id.params[0].type.name, "xs:string");
}

TEST(ParserTest, ExternalFunctionDeclaration) {
  auto m = ParseModule(
      "declare function ns1:int2date($s as xs:integer) as xs:dateTime "
      "external;");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ(m->functions.size(), 1u);
  EXPECT_TRUE(m->functions[0].external);
}

TEST(ParserTest, RecoveryModeCollectsErrorsAndKeepsGoodFunctions) {
  // Paper §4.1: on a parse error the compiler skips to the end of the
  // declaration (the first ';') and continues.
  const char* text = R"(
declare function tns:bad() as xs:integer { 1 + };
declare function tns:good() as xs:integer { 42 };
declare function tns:alsoBad() as { 1 };
declare function tns:good2($x as xs:string) as xs:string { $x };
)";
  DiagnosticBag bag;
  auto m = ParseModule(text, &bag, /*recover=*/true);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(bag.error_count(), 2u);
  EXPECT_NE(m->FindFunction("tns:good"), nullptr);
  EXPECT_NE(m->FindFunction("tns:good2"), nullptr);
}

TEST(ParserTest, FailFastModeStopsOnFirstError) {
  const char* text = R"(
declare function tns:bad() as xs:integer { 1 + };
declare function tns:good() as xs:integer { 42 };
)";
  auto m = ParseModule(text);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, BadFunctionBodyKeepsSignature) {
  const char* text =
      "declare function tns:f($x as xs:string) as xs:string { $x + };";
  DiagnosticBag bag;
  auto m = ParseModule(text, &bag, /*recover=*/true);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->functions.size(), 1u);
  // The signature survives; the body is an error expression.
  EXPECT_EQ(m->functions[0].params.size(), 1u);
  ASSERT_NE(m->functions[0].body, nullptr);
  EXPECT_EQ(m->functions[0].body->kind, ExprKind::kError);
}

TEST(ParserTest, DebugStringRoundTripReparses) {
  const char* queries[] = {
      "for $c in CUSTOMER() where $c/CID eq \"X\" return $c/FIRST_NAME",
      "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l return "
      "count($p)",
      "if ($x gt 3) then \"a\" else \"b\"",
      "some $o in ORDER() satisfies $o/CID eq $c/CID",
  };
  for (const char* q : queries) {
    ExprPtr e = MustParse(q);
    ASSERT_NE(e, nullptr);
    std::string printed = DebugString(*e);
    auto again = ParseExpression(printed);
    ASSERT_TRUE(again.ok()) << printed << " -> " << again.status().ToString();
    EXPECT_EQ(DebugString(**again), printed);
  }
}

TEST(ParserTest, CloneIsDeep) {
  ExprPtr e = MustParse("for $c in CUSTOMER() return <X>{$c/CID}</X>");
  ExprPtr copy = CloneExpr(e);
  EXPECT_EQ(DebugString(*e), DebugString(*copy));
  copy->clauses[0].var = "zzz";
  EXPECT_NE(DebugString(*e), DebugString(*copy));
}

}  // namespace
}  // namespace aldsp::xquery
