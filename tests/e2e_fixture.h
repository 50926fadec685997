#ifndef ALDSP_TESTS_E2E_FIXTURE_H_
#define ALDSP_TESTS_E2E_FIXTURE_H_

#include <memory>
#include <string>

#include "adaptors/external_function_adaptor.h"
#include "adaptors/relational_adaptor.h"
#include "adaptors/webservice_adaptor.h"
#include "compiler/analyzer.h"
#include "compiler/function_table.h"
#include "runtime/context.h"
#include "runtime/evaluator.h"
#include "runtime/worker_pool.h"
#include "service/introspect.h"
#include "tests/test_fixtures.h"
#include "xml/node.h"
#include "xquery/parser.h"

namespace aldsp::testing {

/// The running example's customer-profile view (paper Figure 3) and its
/// keyed read method, over the RunningExample sources below.
inline constexpr const char* kFigure3ProfileModule = R"(
declare function tns:getProfile() as element(PROFILE)* {
  for $CUSTOMER in ns3:CUSTOMER()
  return
    <PROFILE>
      <CID>{fn:data($CUSTOMER/CID)}</CID>
      <LAST_NAME>{ fn:data($CUSTOMER/LAST_NAME) }</LAST_NAME>
      <SINCE>{ ns1:int2date($CUSTOMER/SINCE) }</SINCE>
      <ORDERS>{ ns3:getORDER($CUSTOMER) }</ORDERS>
      <CREDIT_CARDS>{ ns2:CREDIT_CARD()[CID eq $CUSTOMER/CID] }</CREDIT_CARDS>
      <RATING>{
        fn:data(ns4:getRating(
          <ns5:getRating>
            <ns5:lName>{ fn:data($CUSTOMER/LAST_NAME) }</ns5:lName>
            <ns5:ssn>{ fn:data($CUSTOMER/SSN) }</ns5:ssn>
          </ns5:getRating>)/ns5:getRatingResult)
      }</RATING>
    </PROFILE>
};
declare function tns:getProfileByID($id as xs:string)
    as element(PROFILE)* {
  tns:getProfile()[CID eq $id]
};
)";

/// The full running-example environment of paper §3.4 / Figure 3:
/// customer_db (CUSTOMER + ORDER with a foreign key) introspected as
/// source functions ns3:*, billing_db (CREDIT_CARD) as ns2:*, a simulated
/// credit-rating web service ns4:getRating, and the int2date/date2int
/// external functions of §4.5.
class RunningExample {
 public:
  explicit RunningExample(int customers = 5, int max_orders = 3) {
    customer_db = std::shared_ptr<relational::Database>(
        MakeCustomerDb(customers, max_orders).release());
    billing_db = std::shared_ptr<relational::Database>(
        MakeCreditCardDb(customers).release());

    customer_adaptor = std::make_shared<adaptors::RelationalAdaptor>(
        customer_db->name(), customer_db);
    billing_adaptor = std::make_shared<adaptors::RelationalAdaptor>(
        billing_db->name(), billing_db);
    (void)service::IntrospectRelationalSource("ns3", customer_db,
                                              customer_adaptor.get(),
                                              &functions, &schemas, "oracle");
    (void)service::IntrospectRelationalSource("ns2", billing_db,
                                              billing_adaptor.get(),
                                              &functions, &schemas, "db2");

    // Credit-rating web service: rating = 600 + 10 * |lName|.
    rating_ws = std::make_shared<adaptors::SimulatedWebService>("ratingWS");
    rating_ws->RegisterOperation(
        "ns4:getRating",
        [](const std::vector<xml::Sequence>& args) -> Result<xml::Sequence> {
          if (args.size() != 1 || args[0].empty() || !args[0].front().is_node()) {
            return Status::InvalidArgument("getRating: bad request document");
          }
          const xml::NodePtr& req = args[0].front().node();
          xml::NodePtr lname = req->FirstChildNamed("lName");
          int64_t rating =
              600 + 10 * static_cast<int64_t>(
                             lname ? lname->StringValue().size() : 0);
          xml::NodePtr resp = xml::XNode::Element("ns5:getRatingResponse");
          resp->AddChild(xml::XNode::TypedElement(
              "ns5:getRatingResult", xml::AtomicValue::Integer(rating)));
          return xml::Sequence{xml::Item(std::move(resp))};
        },
        /*latency_millis=*/0);
    xsd::TypePtr req_type = xsd::XType::ComplexElement(
        "ns5:getRating",
        {{"ns5:lName",
          xsd::One(xsd::XType::SimpleElement("ns5:lName",
                                             xml::AtomicType::kString))},
         {"ns5:ssn", xsd::One(xsd::XType::SimpleElement(
                         "ns5:ssn", xml::AtomicType::kString))}});
    xsd::TypePtr resp_type = xsd::XType::ComplexElement(
        "ns5:getRatingResponse",
        {{"ns5:getRatingResult",
          xsd::One(xsd::XType::SimpleElement("ns5:getRatingResult",
                                             xml::AtomicType::kInteger))}});
    schemas.Register("ns5:getRating", req_type);
    schemas.Register("ns5:getRatingResponse", resp_type);
    (void)service::RegisterFunctionalSource(
        "ns4:getRating", "ratingWS", "webservice", {xsd::One(req_type)},
        xsd::One(resp_type), &functions);

    // External value-transformation functions (paper §4.5).
    externals = std::make_shared<adaptors::ExternalFunctionAdaptor>("native");
    externals->Register("ns1:int2date", adaptors::MakeInt2DateHandler());
    externals->Register("ns1:date2int", adaptors::MakeDate2IntHandler());
    (void)service::RegisterFunctionalSource(
        "ns1:int2date", "native", "external",
        {xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger))},
        xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime)), &functions);
    (void)service::RegisterFunctionalSource(
        "ns1:date2int", "native", "external",
        {xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime))},
        xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger)), &functions);
    (void)functions.RegisterInverse("ns1:int2date", "ns1:date2int");

    (void)adaptor_registry.Register(customer_adaptor);
    (void)adaptor_registry.Register(billing_adaptor);
    (void)adaptor_registry.Register(rating_ws);
    (void)adaptor_registry.Register(externals);

    ctx.functions = &functions;
    ctx.adaptors = &adaptor_registry;
    ctx.function_cache = &cache;
    ctx.stats = &stats;
    ctx.pool = &pool;
  }

  /// Parses, analyzes and evaluates an ad hoc query (no optimizer).
  Result<xml::Sequence> Run(const std::string& query) {
    ALDSP_ASSIGN_OR_RETURN(xquery::ExprPtr expr, xquery::ParseExpression(query));
    DiagnosticBag bag;
    compiler::Analyzer analyzer(&functions, &schemas, &bag);
    ALDSP_RETURN_NOT_OK(analyzer.Analyze(expr, {}));
    last_expr = expr;
    return runtime::Evaluate(*expr, ctx);
  }

  /// Parses and analyzes a module, registering its functions.
  Status LoadModule(const std::string& text) {
    ALDSP_ASSIGN_OR_RETURN(xquery::Module module, xquery::ParseModule(text));
    DiagnosticBag bag;
    compiler::Analyzer analyzer(&functions, &schemas, &bag);
    return analyzer.AnalyzeModule(module, &functions);
  }

  std::shared_ptr<relational::Database> customer_db;
  std::shared_ptr<relational::Database> billing_db;
  std::shared_ptr<adaptors::RelationalAdaptor> customer_adaptor;
  std::shared_ptr<adaptors::RelationalAdaptor> billing_adaptor;
  std::shared_ptr<adaptors::SimulatedWebService> rating_ws;
  std::shared_ptr<adaptors::ExternalFunctionAdaptor> externals;

  compiler::FunctionTable functions;
  xsd::SchemaRegistry schemas;
  runtime::AdaptorRegistry adaptor_registry;
  runtime::FunctionCache cache;
  runtime::RuntimeStats stats;
  runtime::RuntimeContext ctx;
  xquery::ExprPtr last_expr;

  // Declared last so it is destroyed first: the pool drains or joins any
  // task abandoned by fn-bea:timeout while the function table, adaptors
  // and caches above are still alive (same ordering the server uses).
  runtime::WorkerPool pool;
};

}  // namespace aldsp::testing

#endif  // ALDSP_TESTS_E2E_FIXTURE_H_
