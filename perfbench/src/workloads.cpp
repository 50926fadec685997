#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "env.h"
#include "observability/critical_path.h"
#include "runtime/evaluator.h"
#include "update/engine.h"
#include "update/sdo.h"
#include "xml/serializer.h"

namespace aldsp::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Mean(double total, int64_t n) { return n > 0 ? total / static_cast<double>(n) : 0; }
double Mean(int64_t total, int64_t n) { return Mean(static_cast<double>(total), n); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// Busy-waits: a client doing `micros` of work on each streamed item.
void Spin(int64_t micros) {
  if (micros <= 0) return;
  Clock::time_point end = Clock::now() + std::chrono::microseconds(micros);
  while (Clock::now() < end) {
  }
}

// ----- Closed loop ------------------------------------------------------------

enum SampleKind { kRead = 0, kWrite = 1 };

struct OpSample {
  SampleKind kind = kRead;
  double ms = 0;
  double first_item_ms = 0;
};

struct ClientState {
  std::vector<OpSample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

struct LoopStats {
  std::vector<ClientState> clients;
  double elapsed_s = 0;
  double cpu_s = 0;
};

// Runs `clients` closed-loop clients: each issues its next op as soon as
// the previous one returns, until `seconds` have passed. Op k of client c
// is fixed by the seed, never by timing.
LoopStats ClosedLoop(int clients, double seconds,
                     const std::function<void(int, ClientState&)>& op) {
  LoopStats out;
  out.clients.resize(static_cast<size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientState& state = out.clients[static_cast<size_t>(c)];
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (Clock::now() < deadline) {
        ++state.attempted;
        try {
          op(c, state);
        } catch (const std::exception& e) {
          state.Fail(std::string("exception: ") + e.what());
        }
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  double cpu0 = CpuSeconds();
  Clock::time_point start = Clock::now();
  deadline = start + std::chrono::microseconds(
                         static_cast<int64_t>(seconds * 1e6));
  go.store(true);
  for (std::thread& t : threads) t.join();
  out.elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  out.cpu_s = CpuSeconds() - cpu0;
  return out;
}

// ----- Result checks ------------------------------------------------------------

std::string ChildText(const xml::NodePtr& node, const std::string& name) {
  xml::NodePtr child = node->FirstChildNamed(name);
  return child ? child->StringValue() : std::string("<missing>");
}

size_t ElementChildren(const xml::NodePtr& node, const std::string& name) {
  xml::NodePtr child = node->FirstChildNamed(name);
  if (!child) return static_cast<size_t>(-1);
  size_t n = 0;
  for (const xml::NodePtr& c : child->children()) {
    if (c->kind() == xml::NodeKind::kElement) ++n;
  }
  return n;
}

/// Names the writer has written (or is about to write) to any customer,
/// so a reader accepts a profile that shows a committed write.
class WrittenNames {
 public:
  void Add(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    names_.insert(name);
  }
  bool Contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return names_.count(name) > 0;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::string> names_;
};

// Checks a getProfileByID result against the generator's model; "" when
// it matches. `expect_name`, when set, must be the exact LAST_NAME.
std::string CheckProfile(const std::vector<xml::Item>& items, int customer,
                         const WrittenNames& written,
                         const std::string* expect_name = nullptr) {
  CustomerModel m = ModelCustomer(customer);
  if (items.size() != 1 || !items[0].is_node()) {
    return m.cid + ": expected one PROFILE, got " + std::to_string(items.size()) + " item(s)";
  }
  const xml::NodePtr& p = items[0].node();
  if (p->name() != "PROFILE") return m.cid + ": root is " + p->name();
  if (ChildText(p, "CID") != m.cid) return m.cid + ": CID " + ChildText(p, "CID");
  if (ElementChildren(p, "ORDERS") != static_cast<size_t>(m.orders)) {
    return m.cid + ": order count mismatch";
  }
  if (ElementChildren(p, "CREDIT_CARDS") != (m.has_card ? 1u : 0u)) {
    return m.cid + ": card count mismatch";
  }
  std::string name = ChildText(p, "LAST_NAME");
  if (expect_name != nullptr ? name != *expect_name
                             : name != m.last_name && !written.Contains(name)) {
    return m.cid + ": unexpected LAST_NAME " + name;
  }
  if (ChildText(p, "RATING") != std::to_string(RatingFor(name))) {
    return m.cid + ": RATING " + ChildText(p, "RATING") + " for " + name;
  }
  return "";
}

std::vector<xml::Item> Items(const xml::Sequence& seq) {
  return std::vector<xml::Item>(seq.begin(), seq.end());
}

// ----- Traced sequence ---------------------------------------------------------

enum class ClientApi { kExecute, kStream };

/// One op of the fixed, seeded sequence the traced run executes twice:
/// untraced, then traced, each on a freshly set-up platform.
struct SeqOp {
  std::string text;
  ClientApi api = ClientApi::kExecute;
  int64_t spin_us_per_item = 0;
  /// Result check; "" when correct.
  std::function<std::string(const std::vector<xml::Item>&)> check;
  /// Profile writes: SDO Set + Submit after the read, then a read-back.
  std::optional<ProfileOp> write;
};

/// Per-layer totals over the traced pass.
struct LayerTotals {
  int64_t ops = 0;  // each op evaluates one query
  int64_t results = 0;
  int64_t reads_with_items = 0;
  int64_t hits = 0;
  int64_t compiles = 0;
  double prepare_ms = 0;
  int64_t parse_us = 0, analyze_us = 0, optimize_us = 0, pushdown_us = 0;
  int64_t pushed_regions = 0, bare_scans = 0;
  int64_t statements = 0, rows_scanned = 0, rows_shipped = 0;
  double modelled_wait_ms = 0;
  int64_t ppk_blocks = 0, ppk_blocks_first = 0;
  int64_t ws_calls = 0, external_calls = 0;
  double serialize_ms = 0;
  int64_t result_bytes = 0;
  // Measured on reader ops only, with the extra profiled and client runs.
  int64_t probed = 0;
  double probed_evaluate_ms = 0;
  double source_wait_ms = 0;
  double prefetch_hidden_ms = 0;
  double fanout_ms = 0;
  // Writes.
  int64_t submits = 0;
  double lineage_ms = 0, engine_submit_ms = 0;
  int64_t submit_statements = 0, sources_touched = 0;
  // Op time (the op span, or the same calls timed untraced).
  double op_ms = 0;
};

struct SourceCounts {
  int64_t statements = 0, rows_scanned = 0, rows_shipped = 0, modelled_us = 0;
  int64_t ppk_blocks = 0, ws = 0, ext = 0;
};

SourceCounts ReadCounts(Env& env) {
  SourceCounts c;
  for (relational::Database* db : {&env.customer_db(), &env.billing_db()}) {
    c.statements += db->stats().statements.load();
    c.rows_scanned += db->stats().rows_scanned.load();
    c.rows_shipped += db->stats().rows_shipped.load();
    c.modelled_us += db->stats().simulated_latency_micros.load();
  }
  c.ppk_blocks = env.platform().stats().ppk_blocks.load();
  c.ws = env.ws_calls.load();
  c.ext = env.external_calls.load();
  return c;
}

// Probes one reader op on a freshly built platform, so that profiling,
// which feeds the observed-cost model and with it the PP-k prefetch depth,
// never changes the platform under measurement. After a warm-up run: a
// plan-cache hit, a bare EvaluateStream and the public client API, whose
// difference is the observation fan-out; last the profiled run, whose
// critical path gives the source wait.
void ProbeOp(const EnvOptions& options, const SeqOp& op, LayerTotals* t,
             ClientState* state) {
  Env env(options);
  server::DataServicePlatform& p = env.platform();
  auto sink = [&op](const xml::Item&) {
    Spin(op.spin_us_per_item);
    return Status::OK();
  };
  auto plan = p.Prepare(op.text);
  if (!plan.ok()) return state->Fail("probe: " + plan.status().ToString());
  Status warm = runtime::EvaluateStream(*(*plan)->plan, p.runtime_context(), sink);
  if (!warm.ok()) return state->Fail("probe: " + warm.ToString());
  Clock::time_point t0 = Clock::now();
  (void)p.Prepare(op.text);
  Clock::time_point t1 = Clock::now();
  Status bare = runtime::EvaluateStream(*(*plan)->plan, p.runtime_context(), sink);
  Clock::time_point t2 = Clock::now();
  Status client = op.api == ClientApi::kStream ? p.ExecuteStream(op.text, sink)
                                               : p.Execute(op.text).status();
  Clock::time_point t3 = Clock::now();
  auto profiled = p.ExecuteProfiled(op.text);
  if (!bare.ok() || !client.ok() || !profiled.ok()) {
    return state->Fail("probe: " + op.text);
  }
  observability::CriticalPathReport cpr =
      observability::AnalyzeCriticalPath(profiled->trace->BuildTimeline());
  ++t->probed;
  t->probed_evaluate_ms += MsBetween(t1, t2);
  t->fanout_ms += MsBetween(t2, t3) - MsBetween(t0, t1) - MsBetween(t1, t2);
  t->source_wait_ms += static_cast<double>(cpr.source_wait_micros) / 1000.0;
  t->prefetch_hidden_ms += static_cast<double>(cpr.prefetch_hidden_micros) / 1000.0;
}

/// A driver-owned span, open for the object's lifetime; inert without a
/// recorder, so the untraced pass runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int parent, int64_t op)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

// The calls of one sequence op under its `op` span: Prepare, EvaluateStream
// into `items`, SerializeSequence and, for a write, LineageFor and
// UpdateEngine::Submit. Returns "" or why the op failed. Counts and
// per-layer times go to `t` only when traced.
std::string RunSequenceOp(Env& env, const SeqOp& op, int64_t op_id,
                          SpanRecorder* rec, int op_span, LayerTotals* t,
                          std::vector<xml::Item>* items) {
  server::DataServicePlatform& p = env.platform();
  const bool traced = rec != nullptr;
  Clock::time_point t0 = Clock::now();
  bool hit = false;
  Result<std::shared_ptr<const server::CompiledPlan>> plan = [&] {
    ScopedSpan span(rec, "prepare", op_span, op_id);
    return p.Prepare(op.text, &hit);
  }();
  if (!plan.ok()) return op.text + ": " + plan.status().ToString();
  const server::CompiledPlan& cp = **plan;
  if (traced) {
    t->prepare_ms += MsBetween(t0, Clock::now());
    t->hits += hit ? 1 : 0;
    if (!hit) {
      ++t->compiles;
      t->parse_us += cp.parse_micros;
      t->analyze_us += cp.analyze_micros;
      t->optimize_us += cp.optimize_micros;
      t->pushdown_us += cp.pushdown_micros;
    }
    t->pushed_regions += cp.pushdown.regions_pushed;
    t->bare_scans += cp.pushdown.bare_scans_pushed;
  }

  SourceCounts before = traced ? ReadCounts(env) : SourceCounts{};
  int64_t first_ns = 0, blocks_at_first = 0;
  Status st;
  {
    ScopedSpan evaluate(rec, "evaluate", op_span, op_id);
    env.tracer.op.store(op_id);
    env.tracer.parent.store(evaluate.id());
    const int64_t eval_start_ns = SpanRecorder::NowNs();
    st = runtime::EvaluateStream(
        *cp.plan, p.runtime_context(), [&](const xml::Item& item) -> Status {
          if (items->empty()) {
            first_ns = SpanRecorder::NowNs();
            blocks_at_first = p.stats().ppk_blocks.load() - before.ppk_blocks;
          }
          Spin(op.spin_us_per_item);
          items->push_back(item);
          return Status::OK();
        });
    if (traced && !items->empty()) {
      rec->Add("first_item", evaluate.id(), op_id, eval_start_ns, first_ns);
    }
  }
  env.tracer.parent.store(op_span);
  if (traced) {
    SourceCounts after = ReadCounts(env);
    t->statements += after.statements - before.statements;
    t->rows_scanned += after.rows_scanned - before.rows_scanned;
    t->rows_shipped += after.rows_shipped - before.rows_shipped;
    t->modelled_wait_ms += static_cast<double>(after.modelled_us - before.modelled_us) / 1000.0;
    t->ppk_blocks += after.ppk_blocks - before.ppk_blocks;
    t->ws_calls += after.ws - before.ws;
    t->external_calls += after.ext - before.ext;
    t->results += static_cast<int64_t>(items->size());
    if (!items->empty()) {
      ++t->reads_with_items;
      t->ppk_blocks_first += blocks_at_first;
    }
  }
  if (!st.ok()) return op.text + ": " + st.ToString();

  t0 = Clock::now();
  size_t bytes = [&] {
    ScopedSpan span(rec, "serialize", op_span, op_id);
    return xml::SerializeSequence(xml::Sequence(items->begin(), items->end())).size();
  }();
  if (traced) {
    t->serialize_ms += MsBetween(t0, Clock::now());
    t->result_bytes += static_cast<int64_t>(bytes);
  }
  if (!op.write) return "";

  if (items->size() != 1 || !items->front().is_node()) return op.text + ": no profile to write";
  update::DataObject sdo(items->front().node());
  if (!sdo.Set("LAST_NAME", xml::AtomicValue::String(op.write->new_last_name)).ok() ||
      !sdo.Set("SINCE", xml::AtomicValue::DateTime(op.write->new_since)).ok()) {
    return op.text + ": SDO Set failed";
  }
  t0 = Clock::now();
  auto lineage = [&] {
    ScopedSpan span(rec, "lineage", op_span, op_id);
    return p.LineageFor("tns");
  }();
  Clock::time_point t1 = Clock::now();
  if (!lineage.ok()) return "lineage: " + lineage.status().ToString();
  auto report = [&] {
    ScopedSpan span(rec, "submit", op_span, op_id);
    update::UpdateEngine engine(&p.functions(), &p.adaptors());
    return engine.Submit(sdo, *lineage);
  }();
  Clock::time_point t2 = Clock::now();
  if (!report.ok()) return op.text + ": submit " + report.status().ToString();
  if (traced) {
    ++t->submits;
    t->lineage_ms += MsBetween(t0, t1);
    t->engine_submit_ms += MsBetween(t1, t2);
    t->submit_statements += static_cast<int64_t>(report->statements.size());
    t->sources_touched += static_cast<int64_t>(report->sources_touched.size());
  }
  return "";
}

// Reads a written profile back; "" when it shows the written values.
std::string ReadBack(server::DataServicePlatform& p, const ProfileOp& op) {
  auto back = p.CallMethod("tns:getProfileByID", {"\"" + CustomerId(op.customer) + "\""});
  if (!back.ok()) return "read-back: " + back.status().ToString();
  WrittenNames none;
  std::string err = CheckProfile(Items(*back), op.customer, none, &op.new_last_name);
  if (!err.empty()) return "read-back: " + err;
  xml::NodePtr since = (*back)[0].node()->FirstChildNamed("SINCE");
  if (!since || since->StringValue() != xml::AtomicValue::DateTime(op.new_since).Lexical()) {
    return "read-back: SINCE not written";
  }
  return "";
}

// Runs `ops` one at a time. Untraced (rec == nullptr): the op's calls are
// only timed. Traced: spans at every driver-owned boundary and counts read
// at the same boundaries; with `probe`, each reader op is also probed on
// a fresh platform built from those options.
void RunSequence(Env& env, const std::vector<SeqOp>& ops, SpanRecorder* rec,
                 const EnvOptions* probe, LayerTotals* t, ClientState* state) {
  env.tracer.recorder.store(rec);
  for (size_t i = 0; i < ops.size(); ++i) {
    const SeqOp& op = ops[i];
    const int64_t op_id = static_cast<int64_t>(i);
    ++state->attempted;
    ++t->ops;
    std::vector<xml::Item> items;
    Clock::time_point start = Clock::now();
    std::string err;
    {
      ScopedSpan span(rec, "op", -1, op_id);
      err = RunSequenceOp(env, op, op_id, rec, span.id(), t, &items);
    }
    t->op_ms += MsBetween(start, Clock::now());
    if (err.empty() && op.check) err = op.check(items);
    if (err.empty() && op.write) err = ReadBack(env.platform(), *op.write);
    if (!err.empty()) {
      state->Fail(err);
    } else if (probe != nullptr && !op.write) {
      ProbeOp(*probe, op, t, state);
    }
  }
  env.tracer.recorder.store(nullptr);
  env.tracer.parent.store(-1);
}

// ----- Shared run skeleton ----------------------------------------------------------

/// What a workload plugs into the shared end-to-end and traced runs.
struct WorkloadSpec {
  int clients = 1;
  int setup_reps = 20;
  EnvOptions env_options;
  /// Warm-up after the platform is built: caches filled, lazy set-up done.
  std::function<void(Env&)> warm_up;
  /// Prepares per-client state for a closed loop on `env`; returns the op.
  std::function<std::function<void(int, ClientState&)>(Env&)> make_op;
  /// The fixed sequence of the traced run.
  std::function<std::vector<SeqOp>()> sequence;
  /// Checks outside the timed region after the end-to-end loop.
  std::function<void(ClientState&, RunResult&)> after_loop;
  /// Names the workload's own end-to-end metrics.
  std::function<void(const LoopStats&, RunResult&)> report;
  /// Data sizes, client counts and source model, for the stamp.
  std::map<std::string, std::string> facts;
};

std::unique_ptr<Env> Setup(const WorkloadSpec& spec) {
  auto env = std::make_unique<Env>(spec.env_options);
  spec.warm_up(*env);
  return env;
}

std::vector<double> SamplesOf(const LoopStats& loop, SampleKind kind,
                              bool first_item = false) {
  std::vector<double> v;
  for (const ClientState& c : loop.clients) {
    for (const OpSample& s : c.samples) {
      if (s.kind == kind) v.push_back(first_item ? s.first_item_ms : s.ms);
    }
  }
  return v;
}

// Adds `m` to the printed figures unless one of that name is there already.
void AddReport(RunResult& r, Metric m) {
  for (const Metric& x : r.report) {
    if (x.name == m.name) return;
  }
  r.report.push_back(std::move(m));
}

// Adds the sample count, `<prefix>_p50_ms` and the highest of p90, p99 and
// p999 that keeps at least ten samples beyond it.
void ReportLatency(const std::string& prefix, const std::vector<double>& v,
                   RunResult& r) {
  const int64_t n = static_cast<int64_t>(v.size());
  AddReport(r, {prefix + "_samples", static_cast<double>(n), "count"});
  AddReport(r, {prefix + "_p50_ms", Percentile(v, 0.5), "ms"});
  double q = HighestReportablePercentile(n, {0.9, 0.99, 0.999});
  if (q == 0) {
    r.facts[prefix + "_tail"] = "none: fewer than 10 samples beyond p90";
    return;
  }
  std::string name = q == 0.9 ? "p90" : q == 0.99 ? "p99" : "p999";
  AddReport(r, {prefix + "_" + name + "_ms", Percentile(v, q), "ms"});
}

void Absorb(const ClientState& c, RunResult& r) {
  r.attempted += c.attempted;
  r.failed += c.failed;
  for (const std::string& e : c.errors) {
    if (r.failures.size() < 10) r.failures.push_back(e);
  }
}

// Set-up time: the median of `setup_reps` set-ups. Each platform is torn
// down outside the timed interval.
double MeasureSetupSeconds(const WorkloadSpec& spec) {
  std::vector<double> setups;
  for (int i = 0; i < spec.setup_reps; ++i) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Env> env = Setup(spec);
    setups.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  return Percentile(std::move(setups), 0.5);
}

RunResult RunEndToEnd(const WorkloadSpec& spec, double seconds) {
  RunResult r;
  const double setup_s = MeasureSetupSeconds(spec);
  std::unique_ptr<Env> env = Setup(spec);
  auto op = spec.make_op(*env);
  LoopStats loop = ClosedLoop(spec.clients, seconds, op);
  double rss = PeakRssMb();
  for (const ClientState& c : loop.clients) Absorb(c, r);
  ClientState post;  // re-checks of ops already counted as attempted
  if (spec.after_loop) spec.after_loop(post, r);
  Absorb(post, r);

  int64_t ops = 0;
  for (const ClientState& c : loop.clients) ops += static_cast<int64_t>(c.samples.size());
  std::vector<double> reads = SamplesOf(loop, kRead);
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"throughput_ops_s", static_cast<double>(ops) / loop.elapsed_s, "ops/s"},
      {"read_p50_ms", Percentile(reads, 0.5), "ms"},
      {"first_item_p50_ms", Percentile(SamplesOf(loop, kRead, true), 0.5), "ms"},
      {"peak_rss_mb", rss, "MB"},
  };
  // Then every figure under the workload's own names.
  r.report = r.metrics;
  spec.report(loop, r);
  r.report.push_back({"process_cpu_util", loop.cpu_s / loop.elapsed_s / Nproc(), "ratio"});
  r.report.push_back({"failed_ratio",
                      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0,
                      "ratio"});
  r.report.push_back({"attempted", static_cast<double>(r.attempted), "count"});
  r.facts["setup_reps"] = std::to_string(spec.setup_reps);
  r.facts["measured_s"] = std::to_string(loop.elapsed_s);
  return r;
}

RunResult RunTraced(const WorkloadSpec& spec, double seconds) {
  RunResult r;
  // Phase A: the end-to-end closed loop, untraced, for CPU utilization
  // and the admission gate's wait.
  double cpu_util = 0;
  double admission_wait_ms = 0;
  {
    std::unique_ptr<Env> env = Setup(spec);
    auto op = spec.make_op(*env);
    LoopStats loop = ClosedLoop(spec.clients, seconds, op);
    for (const ClientState& c : loop.clients) Absorb(c, r);
    cpu_util = loop.cpu_s / loop.elapsed_s / Nproc();
    server::AdmissionSnapshot adm = env->platform().admission().Snapshot();
    admission_wait_ms = adm.wait.MeanMicros() / 1000.0;
  }
  // Phases B and C: the fixed sequence, untraced then traced, each on a
  // fresh platform so both start from the same state.
  std::vector<SeqOp> seq = spec.sequence();
  LayerTotals untraced;
  {
    std::unique_ptr<Env> env = Setup(spec);
    ClientState state;
    RunSequence(*env, seq, nullptr, nullptr, &untraced, &state);
    Absorb(state, r);
  }
  LayerTotals t;
  SpanRecorder rec;
  {
    std::unique_ptr<Env> env = Setup(spec);
    ClientState state;
    RunSequence(*env, seq, &rec, &spec.env_options, &t, &state);
    Absorb(state, r);
  }
  r.spans = rec.Snapshot();
  std::map<std::string, int64_t> self = SelfTimeByName(r.spans);

  const int64_t results = std::max<int64_t>(t.results, 1);
  double untraced_op = Mean(untraced.op_ms, untraced.ops);
  double traced_op = Mean(t.op_ms, t.ops);
  r.metrics = {
      {"server.plan_cache_hit_ratio", Mean(t.hits, t.ops), "ratio"},
      {"server.prepare_ms", Mean(t.prepare_ms, t.ops), "ms"},
      {"server.admission_wait_ms", admission_wait_ms, "ms"},
      {"compile.parse_us", Mean(t.parse_us, t.compiles), "us"},
      {"compile.analyze_us", Mean(t.analyze_us, t.compiles), "us"},
      {"compile.optimize_us", Mean(t.optimize_us, t.compiles), "us"},
      {"compile.pushdown_us", Mean(t.pushdown_us, t.compiles), "us"},
      {"sql.pushed_regions_per_plan", Mean(t.pushed_regions, t.ops), "count"},
      {"sql.bare_scans_per_plan", Mean(t.bare_scans, t.ops), "count"},
      {"relational.statements_per_op", Mean(t.statements, t.ops), "count"},
      {"relational.rows_scanned_per_result", Mean(t.rows_scanned, results), "count"},
      {"relational.rows_shipped_per_result", Mean(t.rows_shipped, results), "count"},
      {"relational.modelled_wait_ms", Mean(t.modelled_wait_ms, t.ops), "ms"},
      {"relational.source_wait_ms", Mean(t.source_wait_ms, t.probed), "ms"},
      {"runtime.evaluate_self_ms",
       Mean(t.probed_evaluate_ms, t.probed) - Mean(t.source_wait_ms, t.probed), "ms"},
      {"runtime.ppk_blocks_per_op", Mean(t.ppk_blocks, t.ops), "count"},
      {"runtime.prefetch_hidden_ms", Mean(t.prefetch_hidden_ms, t.probed), "ms"},
      {"runtime.ppk_blocks_before_first_row", Mean(t.ppk_blocks_first, t.reads_with_items), "count"},
      {"adaptors.ws_calls_per_result", Mean(t.ws_calls, results), "count"},
      {"adaptors.external_calls_per_result", Mean(t.external_calls, results), "count"},
      {"xml.serialize_ms", Mean(t.serialize_ms, t.ops), "ms"},
      {"xml.result_bytes", Mean(t.result_bytes, t.ops), "bytes"},
      {"update.lineage_ms", Mean(t.lineage_ms, t.submits), "ms"},
      {"update.engine_submit_ms", Mean(t.engine_submit_ms, t.submits), "ms"},
      {"update.statements_per_submit", Mean(t.submit_statements, t.submits), "count"},
      {"update.sources_touched_per_submit", Mean(t.sources_touched, t.submits), "count"},
      {"observability.fanout_ms", Mean(t.fanout_ms, t.probed), "ms"},
      {"process.cpu_util", cpu_util, "ratio"},
      {"trace.untraced_op_ms", untraced_op, "ms"},
      {"trace.traced_op_ms", traced_op, "ms"},
      {"trace.overhead_ms", traced_op - untraced_op, "ms"},
  };
  for (const char* name : {"op", "prepare", "evaluate", "first_item", "serialize",
                           "lineage", "submit", "ws_call", "external_call"}) {
    auto it = self.find(name);
    double ns = it == self.end() ? 0 : static_cast<double>(it->second);
    r.metrics.push_back({std::string("self.") + name + "_ms", ns / 1e6 / static_cast<double>(std::max<int64_t>(t.ops, 1)), "ms"});
  }
  r.facts["trace_ops"] = std::to_string(seq.size());
  r.facts["trace_phase_a_s"] = std::to_string(seconds);
  return r;
}

// ----- profile_rw --------------------------------------------------------------------

constexpr int kProfileCustomers = 100;
constexpr int kProfileReaders = 2;
constexpr int kProfileWriterFirst = 91;  // the writer owns CUST091..CUST100

WorkloadSpec ProfileSpec(uint64_t seed) {
  WorkloadSpec spec;
  spec.clients = kProfileReaders + 1;
  spec.env_options.customers = kProfileCustomers;
  spec.env_options.roundtrip_micros = 500;
  spec.env_options.per_row_micros = 2;
  spec.env_options.sleep = false;
  spec.warm_up = [](Env& env) {
    // Every reader text is compiled into the plan cache, and a few reads
    // run end to end.
    for (int i = 1; i <= kProfileCustomers; ++i) {
      auto plan = env.platform().Prepare(ProfileCallText(i));
      if (!plan.ok()) throw std::runtime_error("prepare: " + plan.status().ToString());
    }
    WrittenNames none;
    for (int i = 1; i <= 3; ++i) {
      auto res = env.platform().CallMethod("tns:getProfileByID", {"\"" + CustomerId(i) + "\""});
      std::string err = res.ok() ? CheckProfile(Items(*res), i, none) : res.status().ToString();
      if (!err.empty()) throw std::runtime_error("warm-up read: " + err);
    }
  };
  auto written = std::make_shared<WrittenNames>();
  spec.make_op = [seed, written](Env& env) {
    auto streams = std::make_shared<std::vector<ProfileOpStream>>();
    for (int c = 0; c <= kProfileReaders; ++c) {
      streams->emplace_back(seed, c, c == kProfileReaders, kProfileCustomers,
                            kProfileWriterFirst);
    }
    // The writer's view of its own keys: the last name it committed.
    auto current = std::make_shared<std::map<int, std::string>>();
    return std::function<void(int, ClientState&)>(
        [&env, streams, written, current](int c, ClientState& state) {
          server::DataServicePlatform& p = env.platform();
          ProfileOp op = (*streams)[static_cast<size_t>(c)].Next();
          std::vector<std::string> args = {"\"" + CustomerId(op.customer) + "\""};
          Clock::time_point t0 = Clock::now();
          auto res = p.CallMethod("tns:getProfileByID", args);
          std::string bytes = res.ok() ? xml::SerializeSequence(*res) : "";
          Clock::time_point t1 = Clock::now();
          if (!res.ok()) return state.Fail(res.status().ToString());
          std::vector<xml::Item> items = Items(*res);
          if (!op.write) {
            std::string err = CheckProfile(items, op.customer, *written);
            if (!err.empty()) return state.Fail(err);
            double ms = MsBetween(t0, t1);
            state.samples.push_back({kRead, ms, ms});
            return;
          }
          auto it = current->find(op.customer);
          std::string expect = it != current->end() ? it->second
                                                    : ModelCustomer(op.customer).last_name;
          std::string err = CheckProfile(items, op.customer, *written, &expect);
          if (!err.empty()) return state.Fail("writer read: " + err);
          update::DataObject sdo(items[0].node());
          if (!sdo.Set("LAST_NAME", xml::AtomicValue::String(op.new_last_name)).ok() ||
              !sdo.Set("SINCE", xml::AtomicValue::DateTime(op.new_since)).ok()) {
            return state.Fail("SDO Set failed");
          }
          written->Add(op.new_last_name);
          Clock::time_point w0 = Clock::now();
          auto report = p.Submit("tns", sdo);
          Clock::time_point w1 = Clock::now();
          if (!report.ok()) return state.Fail("submit: " + report.status().ToString());
          (*current)[op.customer] = op.new_last_name;
          err = ReadBack(p, op);
          if (!err.empty()) return state.Fail(err);
          double ms = MsBetween(w0, w1);
          state.samples.push_back({kWrite, ms, ms});
        });
  };
  spec.sequence = [seed, written] {
    // Readers and the writer interleaved: R0 R1 W, ten rounds.
    std::vector<ProfileOpStream> streams;
    for (int c = 0; c <= kProfileReaders; ++c) {
      streams.emplace_back(seed, c, c == kProfileReaders, kProfileCustomers,
                           kProfileWriterFirst);
    }
    std::vector<SeqOp> seq;
    for (int round = 0; round < 10; ++round) {
      for (ProfileOpStream& s : streams) {
        ProfileOp op = s.Next();
        SeqOp sop;
        sop.text = ProfileCallText(op.customer);
        int customer = op.customer;
        sop.check = [customer, written](const std::vector<xml::Item>& items) {
          return CheckProfile(items, customer, *written);
        };
        if (op.write) {
          written->Add(op.new_last_name);
          sop.write = op;
        }
        seq.push_back(std::move(sop));
      }
    }
    return seq;
  };
  spec.report = [](const LoopStats& loop, RunResult& out) {
    ReportLatency("read", SamplesOf(loop, kRead), out);
    ReportLatency("write", SamplesOf(loop, kWrite), out);
  };
  spec.facts["customers"] = std::to_string(kProfileCustomers);
  spec.facts["reader_clients"] = std::to_string(kProfileReaders);
  spec.facts["writer_clients"] = "1";
  spec.facts["writer_keys"] = CustomerId(kProfileWriterFirst) + ".." + CustomerId(kProfileCustomers);
  spec.facts["source_latency"] = "500us roundtrip + 2us/row, virtual time";
  spec.facts["zipf_s"] = "1.0";
  return spec;
}

// ----- adhoc_query ----------------------------------------------------------------------

constexpr int kAdhocCustomers = 40;
constexpr int kAdhocClients = 2;
constexpr int kAdhocSampleEvery = 8;    // one query in 8 is re-checked
constexpr size_t kAdhocMaxChecked = 32;

EnvOptions AdhocEnvOptions() {
  EnvOptions o;
  o.customers = kAdhocCustomers;
  o.roundtrip_micros = 500;
  o.per_row_micros = 2;
  o.sleep = false;
  return o;
}

WorkloadSpec AdhocSpec(uint64_t seed) {
  WorkloadSpec spec;
  spec.clients = kAdhocClients;
  spec.env_options = AdhocEnvOptions();
  spec.warm_up = [seed](Env& env) {
    AdhocQueryStream warm(seed, 99, kAdhocCustomers);
    for (int i = 0; i < 100; ++i) {
      std::string q = warm.Next();
      auto res = env.platform().Execute(q);
      if (!res.ok()) throw std::runtime_error("warm-up query failed: " + q + ": " + res.status().ToString());
    }
  };
  struct Sampled {
    std::mutex mu;
    std::vector<std::pair<std::string, std::string>> texts;  // text, result
  };
  auto sampled = std::make_shared<Sampled>();
  spec.make_op = [seed, sampled](Env& env) {
    auto streams = std::make_shared<std::vector<AdhocQueryStream>>();
    auto pickers = std::make_shared<std::vector<Rng>>();
    for (int c = 0; c < kAdhocClients; ++c) {
      streams->emplace_back(seed, c, kAdhocCustomers);
      pickers->emplace_back(StreamSeed(seed, 300 + static_cast<uint64_t>(c)));
    }
    return std::function<void(int, ClientState&)>(
        [&env, streams, pickers, sampled](int c, ClientState& state) {
          std::string q = (*streams)[static_cast<size_t>(c)].Next();
          bool check = (*pickers)[static_cast<size_t>(c)].Below(kAdhocSampleEvery) == 0;
          Clock::time_point t0 = Clock::now();
          auto res = env.platform().Execute(q);
          std::string bytes = res.ok() ? xml::SerializeSequence(*res) : "";
          Clock::time_point t1 = Clock::now();
          if (!res.ok()) return state.Fail(q + ": " + res.status().ToString());
          double ms = MsBetween(t0, t1);
          state.samples.push_back({kRead, ms, ms});
          if (check) {
            std::lock_guard<std::mutex> lock(sampled->mu);
            if (sampled->texts.size() < kAdhocMaxChecked) {
              sampled->texts.emplace_back(std::move(q), std::move(bytes));
            }
          }
        });
  };
  spec.after_loop = [sampled](ClientState& state, RunResult& r) {
    // The sampled texts again, on the reference configuration (no
    // optimizer, no pushdown): results must be byte-identical.
    EnvOptions o = AdhocEnvOptions();
    o.reference = true;
    Env ref(o);
    for (const auto& [q, bytes] : sampled->texts) {
      auto res = ref.platform().Execute(q);
      if (!res.ok()) {
        state.Fail("reference failed: " + q + ": " + res.status().ToString());
      } else if (xml::SerializeSequence(*res) != bytes) {
        state.Fail("differs from reference: " + q);
      }
    }
    r.facts["reference_checked"] = std::to_string(sampled->texts.size());
  };
  spec.sequence = [seed] {
    AdhocQueryStream stream(seed, 0, kAdhocCustomers);
    std::vector<SeqOp> seq;
    for (int i = 0; i < 120; ++i) {
      SeqOp op;
      op.text = stream.Next();
      seq.push_back(std::move(op));
    }
    return seq;
  };
  spec.report = [](const LoopStats& loop, RunResult& out) {
    ReportLatency("read", SamplesOf(loop, kRead), out);
  };
  spec.facts["customers"] = std::to_string(kAdhocCustomers);
  spec.facts["clients"] = std::to_string(kAdhocClients);
  spec.facts["source_latency"] = "500us roundtrip + 2us/row, virtual time";
  spec.facts["reference_sample"] = "1 in " + std::to_string(kAdhocSampleEvery) + ", at most " +
                                std::to_string(kAdhocMaxChecked);
  return spec;
}

// ----- federated_stream ------------------------------------------------------------------

constexpr int kFedCustomers = 200;
constexpr int kFedFloors = 8;
constexpr int64_t kFedSpinMicros = 40;

std::vector<int64_t> FederatedFloors(uint64_t seed) {
  Rng rng(StreamSeed(seed, 400));
  std::vector<int64_t> floors;
  for (int i = 0; i < kFedFloors; ++i) {
    int cut = 1 + static_cast<int>(rng.Below(20));
    floors.push_back(ModelCustomer(cut).since);
  }
  return floors;
}

WorkloadSpec FederatedSpec(uint64_t seed) {
  WorkloadSpec spec;
  spec.clients = 1;
  std::vector<int64_t> floors = FederatedFloors(seed);
  spec.env_options.customers = kFedCustomers;
  spec.env_options.roundtrip_micros = 2000;
  spec.env_options.per_row_micros = 2;
  spec.env_options.sleep = true;
  spec.warm_up = [floors](Env& env) {
    for (int64_t f : floors) {
      auto plan = env.platform().Prepare(FederatedQueryText(f));
      if (!plan.ok()) throw std::runtime_error("prepare: " + plan.status().ToString());
    }
    Status s = env.platform().ExecuteStream(FederatedQueryText(floors[0]),
                                            [](const xml::Item&) { return Status::OK(); });
    if (!s.ok()) throw std::runtime_error("warm-up stream: " + s.ToString());
  };
  auto expected = std::make_shared<std::vector<std::vector<std::string>>>();
  for (int64_t f : floors) expected->push_back(FederatedExpected(kFedCustomers, f));
  auto check = [expected](size_t j, const std::vector<std::string>& got) -> std::string {
    const std::vector<std::string>& want = (*expected)[j];
    if (got.size() != want.size()) {
      return "streamed " + std::to_string(got.size()) + " items, expected " +
             std::to_string(want.size());
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i] != want[i]) return "item " + std::to_string(i) + ": " + got[i];
    }
    return "";
  };
  spec.make_op = [floors, check](Env& env) {
    auto next = std::make_shared<size_t>(0);
    return std::function<void(int, ClientState&)>(
        [&env, floors, check, next](int, ClientState& state) {
          size_t j = (*next)++ % floors.size();
          std::vector<std::string> got;
          bool first = false;
          Clock::time_point t0 = Clock::now(), t_first = t0;
          Status s = env.platform().ExecuteStream(
              FederatedQueryText(floors[j]), [&](const xml::Item& item) {
                if (!first) {
                  first = true;
                  t_first = Clock::now();
                }
                Spin(kFedSpinMicros);
                got.push_back(xml::SerializeSequence(xml::Sequence{item}));
                return Status::OK();
              });
          Clock::time_point t1 = Clock::now();
          if (!s.ok()) return state.Fail(s.ToString());
          std::string err = check(j, got);
          if (!err.empty()) return state.Fail(err);
          state.samples.push_back({kRead, MsBetween(t0, t1), MsBetween(t0, t_first)});
        });
  };
  spec.sequence = [floors, check] {
    std::vector<SeqOp> seq;
    for (size_t i = 0; i < 16; ++i) {
      size_t j = i % floors.size();
      SeqOp op;
      op.text = FederatedQueryText(floors[j]);
      op.api = ClientApi::kStream;
      op.spin_us_per_item = kFedSpinMicros;
      op.check = [j, check](const std::vector<xml::Item>& items) {
        std::vector<std::string> got;
        for (const xml::Item& it : items) got.push_back(xml::SerializeSequence(xml::Sequence{it}));
        return check(j, got);
      };
      seq.push_back(std::move(op));
    }
    return seq;
  };
  spec.report = [](const LoopStats& loop, RunResult& out) {
    ReportLatency("stream", SamplesOf(loop, kRead), out);
    ReportLatency("ttfr", SamplesOf(loop, kRead, true), out);
  };
  spec.facts["customers"] = std::to_string(kFedCustomers);
  spec.facts["clients"] = "1";
  spec.facts["source_latency"] = "2000us roundtrip + 2us/row, slept";
  spec.facts["sink_spin_us_per_item"] = std::to_string(kFedSpinMicros);
  spec.facts["since_floors"] = std::to_string(kFedFloors);
  return spec;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  WorkloadSpec spec;
  if (config.workload == "profile_rw") {
    spec = ProfileSpec(config.seed);
  } else if (config.workload == "adhoc_query") {
    spec = AdhocSpec(config.seed);
  } else if (config.workload == "federated_stream") {
    spec = FederatedSpec(config.seed);
  } else {
    throw std::runtime_error("unknown workload: " + config.workload);
  }
  RunResult r = config.trace ? RunTraced(spec, config.seconds)
                             : RunEndToEnd(spec, config.seconds);
  r.facts.insert(spec.facts.begin(), spec.facts.end());
  return r;
}

}  // namespace aldsp::perfbench
