#include "env.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "adaptors/external_function_adaptor.h"
#include "adaptors/webservice_adaptor.h"

namespace aldsp::perfbench {

namespace {

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) throw std::runtime_error(what + ": " + s.ToString());
}

std::shared_ptr<relational::Database> MakeCustomerDb(int customers) {
  using namespace relational;
  auto db = std::make_shared<Database>("customer_db");
  TableDef customer;
  customer.name = "CUSTOMER";
  customer.columns = {{"CID", ColumnType::kVarchar, false},
                      {"FIRST_NAME", ColumnType::kVarchar, true},
                      {"LAST_NAME", ColumnType::kVarchar, true},
                      {"SSN", ColumnType::kVarchar, true},
                      {"SINCE", ColumnType::kBigInt, true}};
  customer.primary_key = {"CID"};
  Check(db->CreateTable(customer), "create CUSTOMER");
  TableDef order;
  order.name = "ORDER";
  order.columns = {{"OID", ColumnType::kInteger, false},
                   {"CID", ColumnType::kVarchar, false},
                   {"AMOUNT", ColumnType::kDouble, true}};
  order.primary_key = {"OID"};
  order.foreign_keys = {{{"CID"}, "CUSTOMER", {"CID"}}};
  Check(db->CreateTable(order), "create ORDER");
  int oid = 1;
  for (int i = 1; i <= customers; ++i) {
    CustomerModel m = ModelCustomer(i);
    Check(db->InsertRow("CUSTOMER",
                        {Cell::Str(m.cid), Cell::Str(m.first_name),
                         Cell::Str(m.last_name), Cell::Str(m.ssn),
                         Cell::Int(m.since)}),
          "insert CUSTOMER");
    for (int j = 0; j < m.orders; ++j) {
      Check(db->InsertRow("ORDER", {Cell::Int(oid++), Cell::Str(m.cid),
                                    Cell::Dbl(25.0 * (j + 1))}),
            "insert ORDER");
    }
  }
  return db;
}

std::shared_ptr<relational::Database> MakeBillingDb(int customers) {
  using namespace relational;
  auto db = std::make_shared<Database>("billing_db");
  TableDef cc;
  cc.name = "CREDIT_CARD";
  cc.columns = {{"CCN", ColumnType::kVarchar, false},
                {"CID", ColumnType::kVarchar, false},
                {"LIMIT_AMT", ColumnType::kDouble, true}};
  cc.primary_key = {"CCN"};
  Check(db->CreateTable(cc), "create CREDIT_CARD");
  for (int i = 1; i <= customers; ++i) {
    CustomerModel m = ModelCustomer(i);
    if (!m.has_card) continue;
    Check(db->InsertRow("CREDIT_CARD",
                        {Cell::Str("CC-" + std::to_string(i)),
                         Cell::Str(m.cid), Cell::Dbl(1000.0 * i)}),
          "insert CREDIT_CARD");
  }
  return db;
}

// The Figure 3 logical data service: one read method building PROFILE
// elements from four sources, and the keyed read the clients call.
constexpr const char* kProfileService = R"(
xquery version "1.0" encoding "UTF8";

declare namespace tns="urn:profile";

(::pragma function kind="read" isPrimary="true" ::)
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

(::pragma function kind="read" ::)
declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {
  tns:getProfile()[CID eq $id]
};
)";

// Wraps a callback so each call is counted and, while a traced op runs,
// recorded as a span under that op's evaluate span.
template <typename Fn>
auto Observed(std::string span_name, std::atomic<int64_t>* calls,
              CallTracer* tracer, Fn fn) {
  return [span_name = std::move(span_name), calls, tracer,
          fn = std::move(fn)](const std::vector<xml::Sequence>& args)
             -> Result<xml::Sequence> {
    calls->fetch_add(1, std::memory_order_relaxed);
    SpanRecorder* rec = tracer->recorder.load();
    if (rec == nullptr) return fn(args);
    int64_t t0 = SpanRecorder::NowNs();
    Result<xml::Sequence> out = fn(args);
    rec->Add(span_name, tracer->parent.load(), tracer->op.load(), t0,
             SpanRecorder::NowNs());
    return out;
  };
}

}  // namespace

Env::Env(const EnvOptions& options) : options_(options) {
  server::ServerOptions server_options;
  if (options.reference) {
    server_options.enable_optimizer = false;
    server_options.enable_pushdown = false;
  }
  platform_ = std::make_unique<server::DataServicePlatform>(server_options);
  customer_db_ = MakeCustomerDb(options.customers);
  billing_db_ = MakeBillingDb(options.customers);
  for (relational::Database* db : {customer_db_.get(), billing_db_.get()}) {
    db->latency_model().roundtrip_micros = options.roundtrip_micros;
    db->latency_model().per_row_micros = options.per_row_micros;
    db->latency_model().sleep = options.sleep;
  }
  server::DataServicePlatform& p = *platform_;
  Check(p.RegisterRelationalSource("ns3", customer_db_, "oracle"),
        "register customer_db");
  Check(p.RegisterRelationalSource("ns2", billing_db_, "db2"),
        "register billing_db");

  auto rating = [](const std::vector<xml::Sequence>& args)
      -> Result<xml::Sequence> {
    if (args.size() != 1 || args[0].empty() || !args[0].front().is_node()) {
      return Status::InvalidArgument("getRating: bad request");
    }
    // The service's own rule; the checks compare against RatingFor.
    xml::NodePtr lname = args[0].front().node()->FirstChildNamed("lName");
    int64_t value =
        600 + 10 * static_cast<int64_t>(lname ? lname->StringValue().size() : 0);
    xml::NodePtr resp = xml::XNode::Element("ns5:getRatingResponse");
    resp->AddChild(xml::XNode::TypedElement(
        "ns5:getRatingResult", xml::AtomicValue::Integer(value)));
    return xml::Sequence{xml::Item(std::move(resp))};
  };
  auto rating_ws = std::make_shared<adaptors::SimulatedWebService>("ratingWS");
  rating_ws->RegisterOperation("ns4:getRating",
                               Observed("ws_call", &ws_calls, &tracer, rating));
  Check(p.RegisterAdaptor(rating_ws), "register ratingWS");
  xsd::TypePtr req_type = xsd::XType::ComplexElement(
      "ns5:getRating",
      {{"ns5:lName", xsd::One(xsd::XType::SimpleElement(
                         "ns5:lName", xml::AtomicType::kString))},
       {"ns5:ssn", xsd::One(xsd::XType::SimpleElement(
                       "ns5:ssn", xml::AtomicType::kString))}});
  xsd::TypePtr resp_type = xsd::XType::ComplexElement(
      "ns5:getRatingResponse",
      {{"ns5:getRatingResult",
        xsd::One(xsd::XType::SimpleElement("ns5:getRatingResult",
                                           xml::AtomicType::kInteger))}});
  p.schemas().Register("ns5:getRating", req_type);
  p.schemas().Register("ns5:getRatingResponse", resp_type);
  Check(p.RegisterFunctionalSource("ns4:getRating", "ratingWS", "webservice",
                                   {xsd::One(req_type)}, xsd::One(resp_type)),
        "declare ns4:getRating");

  auto native = std::make_shared<adaptors::ExternalFunctionAdaptor>("native");
  native->Register("ns1:int2date",
                   Observed("external_call", &external_calls, &tracer,
                            adaptors::MakeInt2DateHandler()));
  native->Register("ns1:date2int",
                   Observed("external_call", &external_calls, &tracer,
                            adaptors::MakeDate2IntHandler()));
  Check(p.RegisterAdaptor(native), "register native");
  Check(p.RegisterFunctionalSource(
            "ns1:int2date", "native", "external",
            {xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger))},
            xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime))),
        "declare ns1:int2date");
  Check(p.RegisterFunctionalSource(
            "ns1:date2int", "native", "external",
            {xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime))},
            xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger))),
        "declare ns1:date2int");
  Check(p.functions().RegisterInverse("ns1:int2date", "ns1:date2int"),
        "register inverse");
  Check(p.LoadDataService(kProfileService), "load profile service");
}

}  // namespace aldsp::perfbench
