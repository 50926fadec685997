#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "optimizer/optimizer.h"
#include "runtime/query_trace.h"
#include "server/server.h"
#include "tests/e2e_fixture.h"
#include "tests/test_fixtures.h"
#include "xml/serializer.h"

namespace aldsp::runtime {
namespace {

using aldsp::testing::RunningExample;
using optimizer::Optimizer;
using optimizer::OptimizerOptions;
using xquery::ExprPtr;
using xquery::JoinMethod;

constexpr const char* kJoinQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "where $c/CID eq $o/CID "
    "return <CO><C>{fn:data($c/CID)}</C><O>{fn:data($o/OID)}</O></CO>";

// Compiles the join query with a forced join method (same shape as
// join_methods_test, repeated here so this suite stays self-contained
// for the TSan configuration).
ExprPtr PlanWithMethod(RunningExample& env, JoinMethod method, int k = 20) {
  auto parsed = xquery::ParseExpression(kJoinQuery);
  EXPECT_TRUE(parsed.ok());
  ExprPtr e = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  EXPECT_TRUE(analyzer.Analyze(e, {}).ok());
  OptimizerOptions options;
  options.cross_source_method = method;
  options.ppk_k = k;
  options.convert_ppk = method == JoinMethod::kPPkNestedLoop ||
                        method == JoinMethod::kPPkIndexNestedLoop;
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  EXPECT_TRUE(opt.Optimize(e).ok());
  for (auto& cl : e->clauses) {
    if (cl.kind == xquery::Clause::Kind::kJoin) {
      cl.method = method;
      cl.ppk_block_size = k;
    }
  }
  return e;
}

// Runs EvaluateStream and materializes the streamed items.
Result<xml::Sequence> CollectStream(const xquery::Expr& e,
                                    const RuntimeContext& ctx) {
  xml::Sequence out;
  ALDSP_RETURN_NOT_OK(EvaluateStream(e, ctx, [&](const xml::Item& item) {
    out.push_back(item);
    return Status::OK();
  }));
  return out;
}

// The trace-parity key: operator spans must report the same row counts
// whether the tree is driven by Evaluate or EvaluateStream. Details are
// excluded because only the flwor root's detail differs ("streaming").
std::multiset<std::pair<std::string, int64_t>> SpanRows(
    const QueryTrace& trace) {
  std::multiset<std::pair<std::string, int64_t>> rows;
  for (const auto& span : trace.spans()) {
    rows.insert({span.kind, span.rows});
  }
  return rows;
}

class PhysicalParityTest : public ::testing::TestWithParam<JoinMethod> {};

TEST_P(PhysicalParityTest, EvaluateAndStreamMatchReference) {
  RunningExample env(30, 3);
  auto reference = env.Run(kJoinQuery);  // naive nested iteration
  ASSERT_TRUE(reference.ok());
  ExprPtr plan = PlanWithMethod(env, GetParam());

  auto materialized = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  auto streamed = CollectStream(*plan, env.ctx);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  const std::string expected = xml::SerializeSequence(*reference);
  EXPECT_EQ(expected, xml::SerializeSequence(*materialized));
  EXPECT_EQ(expected, xml::SerializeSequence(*streamed));
}

TEST_P(PhysicalParityTest, SpanRowCountsMatchBetweenDrivers) {
  RunningExample env(30, 3);
  ExprPtr plan = PlanWithMethod(env, GetParam());

  QueryTrace eval_trace;
  env.ctx.trace = &eval_trace;
  ASSERT_TRUE(Evaluate(*plan, env.ctx).ok());

  QueryTrace stream_trace;
  env.ctx.trace = &stream_trace;
  ASSERT_TRUE(CollectStream(*plan, env.ctx).ok());

  EXPECT_EQ(SpanRows(eval_trace), SpanRows(stream_trace));
}

INSTANTIATE_TEST_SUITE_P(
    Repertoire, PhysicalParityTest,
    ::testing::Values(JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
                      JoinMethod::kPPkNestedLoop,
                      JoinMethod::kPPkIndexNestedLoop),
    [](const auto& info) {
      switch (info.param) {
        case JoinMethod::kNestedLoop:
          return "NestedLoop";
        case JoinMethod::kIndexNestedLoop:
          return "IndexNestedLoop";
        case JoinMethod::kPPkNestedLoop:
          return "PPkNestedLoop";
        case JoinMethod::kPPkIndexNestedLoop:
          return "PPkIndexNestedLoop";
        default:
          return "Auto";
      }
    });

TEST(PhysicalParityTest, BatchWidthsAreByteIdentical) {
  // The batch size is a pure throughput knob: every width — including 1,
  // which degenerates to row-at-a-time — must produce byte-identical
  // ordered output for every join method, through both drivers. Odd
  // widths exercise partial final batches; width 3 makes most batches
  // sub-block relative to the 30-row inputs.
  RunningExample env(30, 3);
  auto reference = env.Run(kJoinQuery);
  ASSERT_TRUE(reference.ok());
  const std::string expected = xml::SerializeSequence(*reference);

  for (JoinMethod method :
       {JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
        JoinMethod::kPPkNestedLoop, JoinMethod::kPPkIndexNestedLoop}) {
    ExprPtr plan = PlanWithMethod(env, method);
    for (int width : {1, 3, 7, 1024}) {
      env.ctx.batch_size = width;
      auto materialized = Evaluate(*plan, env.ctx);
      ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*materialized))
          << "width=" << width;
      auto streamed = CollectStream(*plan, env.ctx);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*streamed))
          << "width=" << width;
    }
  }
  env.ctx.batch_size = 1024;
}

TEST(PhysicalParityTest, PrefetchOnAndOffAreByteIdentical) {
  // The PP-k prefetcher overlaps the next block's round trip with
  // consumption of the current one; results and block counts must not
  // depend on whether the overlap is enabled.
  for (int k : {1, 7, 20, 50}) {
    RunningExample env(30, 3);
    ExprPtr plan = PlanWithMethod(env, JoinMethod::kPPkIndexNestedLoop, k);

    env.ctx.ppk_prefetch = false;
    env.stats.Reset();
    auto baseline = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    int64_t baseline_blocks = env.stats.ppk_blocks.load();

    env.ctx.ppk_prefetch = true;
    env.stats.Reset();
    auto prefetched = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(prefetched.ok()) << prefetched.status().ToString();

    EXPECT_EQ(xml::SerializeSequence(*baseline),
              xml::SerializeSequence(*prefetched))
        << "k=" << k;
    EXPECT_EQ(env.stats.ppk_blocks.load(), baseline_blocks) << "k=" << k;
    EXPECT_EQ(baseline_blocks, (30 + k - 1) / k) << "k=" << k;
  }
}

// ----- Streaming PP-k: first row after one block --------------------------
//
// A streamed PP-k join ends each batch at a source-block boundary, so the
// sink sees its first item once the first block's round trip is back
// rather than after every block has been fetched and joined.

constexpr int kStreamCustomers = 200;
constexpr int kStreamK = 20;
constexpr int kStreamBlocks = kStreamCustomers / kStreamK;

// PP-k blocks read (RuntimeStats::ppk_blocks) when the sink receives its
// first item; -1 if the stream produced nothing.
int64_t BlocksAtFirstItem(RunningExample& env, const xquery::Expr& plan) {
  env.stats.Reset();
  int64_t at_first = -1;
  Status st = EvaluateStream(plan, env.ctx, [&](const xml::Item&) {
    if (at_first < 0) at_first = env.stats.ppk_blocks.load();
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(env.stats.ppk_blocks.load(), kStreamBlocks);
  return at_first;
}

TEST(StreamingFirstRowTest, FirstItemFollowsOneBlockAtDefaultWidth) {
  RunningExample env(kStreamCustomers, 3);
  ExprPtr plan =
      PlanWithMethod(env, JoinMethod::kPPkIndexNestedLoop, kStreamK);
  ASSERT_EQ(env.ctx.batch_size, 1024);

  // Without prefetch the join reads and fetches one block per pull.
  env.ctx.ppk_prefetch = false;
  EXPECT_EQ(BlocksAtFirstItem(env, *plan), 1);

  // With prefetch the join has also read the `depth` blocks whose
  // fetches it keeps in flight, and no more.
  env.ctx.ppk_prefetch = true;
  for (int depth : {1, 4}) {
    env.ctx.ppk_prefetch_depth = depth;
    int64_t blocks = BlocksAtFirstItem(env, *plan);
    EXPECT_GE(blocks, 1) << "depth=" << depth;
    EXPECT_LE(blocks, 1 + depth) << "depth=" << depth;
  }
}

TEST(StreamingFirstRowTest, WidthsPrefetchAndDriversAreByteIdentical) {
  // The reference is the INL join, which the suites above lock to the
  // naive interpreter; naive nested iteration over 200 x 600 rows is too
  // slow for the sanitizer builds.
  RunningExample env(kStreamCustomers, 3);
  auto reference = Evaluate(
      *PlanWithMethod(env, JoinMethod::kIndexNestedLoop), env.ctx);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected = xml::SerializeSequence(*reference);

  struct Prefetch {
    bool on;
    int depth;
  };
  ExprPtr plan =
      PlanWithMethod(env, JoinMethod::kPPkIndexNestedLoop, kStreamK);
  for (int width : {1, 7, 1024}) {
    env.ctx.batch_size = width;
    for (Prefetch p :
         {Prefetch{false, 0}, Prefetch{true, 1}, Prefetch{true, 8}}) {
      env.ctx.ppk_prefetch = p.on;
      env.ctx.ppk_prefetch_depth = p.depth;
      auto materialized = Evaluate(*plan, env.ctx);
      ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*materialized))
          << "width=" << width << " depth=" << p.depth;
      auto streamed = CollectStream(*plan, env.ctx);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*streamed))
          << "width=" << width << " depth=" << p.depth;
    }
  }
}

// Early exit is the common case once the first item leaves before the
// last block is fetched: stopping the stream after its first item, with
// block fetches in flight on the worker pool, must yield the typed error
// or kCancelled, never a partial success or a hang. Close and the
// destructor drain the prefetch pipeline; the TSan suite checks that no
// fetch task outlives the operators it touches.
TEST(StreamEarlyExitTest, StopAfterFirstItemYieldsTheTypedStatus) {
  server::ServerOptions options;
  options.ppk_prefetch_depth = 4;
  options.max_query_dop = 1;
  server::DataServicePlatform platform(options);
  auto customers = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCustomerDb(kStreamCustomers, 0).release());
  auto cards = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCreditCardDb(kStreamCustomers).release());
  // Slept round trips keep the prefetched block fetches in flight when
  // the first item reaches the sink.
  cards->latency_model().roundtrip_micros = 2000;
  cards->latency_model().sleep = true;
  ASSERT_TRUE(
      platform.RegisterRelationalSource("ns3", customers, "oracle").ok());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns2", cards, "db2").ok());

  const char* kCrossJoin =
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID "
      "return <X>{fn:data($cc/CCN)}</X>";
  auto explain = platform.Explain(kCrossJoin);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_NE(explain->find("join[ppk-inl]"), std::string::npos) << *explain;

  for (bool cancel : {false, true}) {
    for (int round = 0; round < 5; ++round) {
      int delivered = 0;
      Status st = platform.ExecuteStream(kCrossJoin, [&](const xml::Item&) {
        if (++delivered > 1) return Status::OK();
        if (!cancel) return Status::RuntimeError("consumer stopped");
        auto live = platform.query_registry().Snapshot();
        EXPECT_EQ(live.size(), 1u);
        EXPECT_TRUE(!live.empty() &&
                    platform.CancelQuery(live[0].query_id));
        return Status::OK();
      });
      EXPECT_EQ(st.code(),
                cancel ? StatusCode::kCancelled : StatusCode::kRuntimeError)
          << st.ToString();
      EXPECT_EQ(delivered, 1) << "cancel=" << cancel;
      EXPECT_EQ(platform.query_registry().live_count(), 0);
      EXPECT_EQ(platform.worker_pool().queue_depth(), 0);
    }
  }
}

// ----- Parallel vs serial parity (exchange insertion) --------------------
//
// The planner inserts exchange operators when ctx.max_query_dop > 1 and
// the optimizer's cardinality annotations cross the threshold. Tests
// patch Clause::estimated_rows directly (the annotation the observed-cost
// post-pass would produce) so plans parallelize deterministically without
// warming a model.

void MarkLargeClauses(xquery::Expr& flwor) {
  for (auto& cl : flwor.clauses) {
    if (cl.kind == xquery::Clause::Kind::kFor ||
        cl.kind == xquery::Clause::Kind::kJoin) {
      cl.estimated_rows = 100000;
    }
  }
}

std::multiset<std::string> ItemStrings(const xml::Sequence& seq) {
  std::multiset<std::string> out;
  for (const auto& item : seq) {
    out.insert(xml::SerializeSequence(xml::Sequence{item}));
  }
  return out;
}

class ParallelParityTest : public ::testing::TestWithParam<JoinMethod> {};

TEST_P(ParallelParityTest, OrderedParallelJoinMatchesSerialExactly) {
  RunningExample env(30, 3);
  ExprPtr plan = PlanWithMethod(env, GetParam());
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 1;
  auto serial = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string expected = xml::SerializeSequence(*serial);

  for (int dop : {2, 8}) {
    env.ctx.max_query_dop = dop;
    env.ctx.exchange_ordered = true;
    auto parallel = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(expected, xml::SerializeSequence(*parallel)) << "dop=" << dop;
    auto streamed = CollectStream(*plan, env.ctx);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(expected, xml::SerializeSequence(*streamed)) << "dop=" << dop;
  }
  env.ctx.max_query_dop = 1;
}

TEST_P(ParallelParityTest, UnorderedParallelJoinIsMultisetEqual) {
  RunningExample env(30, 3);
  ExprPtr plan = PlanWithMethod(env, GetParam());
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 1;
  auto serial = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int dop : {2, 8}) {
    env.ctx.max_query_dop = dop;
    env.ctx.exchange_ordered = false;
    auto parallel = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(ItemStrings(*serial), ItemStrings(*parallel)) << "dop=" << dop;
  }
  env.ctx.max_query_dop = 1;
  env.ctx.exchange_ordered = true;
}

INSTANTIATE_TEST_SUITE_P(
    Repertoire, ParallelParityTest,
    ::testing::Values(JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
                      JoinMethod::kPPkNestedLoop,
                      JoinMethod::kPPkIndexNestedLoop),
    [](const auto& info) {
      switch (info.param) {
        case JoinMethod::kNestedLoop:
          return "NestedLoop";
        case JoinMethod::kIndexNestedLoop:
          return "IndexNestedLoop";
        case JoinMethod::kPPkNestedLoop:
          return "PPkNestedLoop";
        case JoinMethod::kPPkIndexNestedLoop:
          return "PPkIndexNestedLoop";
        default:
          return "Auto";
      }
    });

TEST(ParallelParityTest, TinyBatchesThroughExchangesMatchSerial) {
  // Small widths stress the exchange path: scatter chunks carry one- and
  // three-row batches, workers see many tiny units, and the ordered
  // gather must still reassemble the exact serial output at every dop.
  RunningExample env(30, 3);
  auto reference = env.Run(kJoinQuery);
  ASSERT_TRUE(reference.ok());
  const std::string expected = xml::SerializeSequence(*reference);

  for (JoinMethod method :
       {JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
        JoinMethod::kPPkNestedLoop, JoinMethod::kPPkIndexNestedLoop}) {
    ExprPtr plan = PlanWithMethod(env, method);
    MarkLargeClauses(*plan);
    for (int width : {1, 3}) {
      env.ctx.batch_size = width;
      for (int dop : {2, 8}) {
        env.ctx.max_query_dop = dop;
        env.ctx.exchange_ordered = true;
        auto parallel = Evaluate(*plan, env.ctx);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        EXPECT_EQ(expected, xml::SerializeSequence(*parallel))
            << "width=" << width << " dop=" << dop;
      }
    }
  }
  env.ctx.batch_size = 1024;
  env.ctx.max_query_dop = 1;
}

TEST(ParallelParityTest, ParallelForScanMatchesSerial) {
  // Two cascaded for-scans (join introduction disabled) so the second
  // scan sits above a multi-tuple stream and parallelizes.
  RunningExample env(30, 3);
  auto parsed = xquery::ParseExpression(kJoinQuery);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  OptimizerOptions options;
  options.introduce_joins = false;
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  ASSERT_TRUE(opt.Optimize(plan).ok());
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 1;
  auto serial = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int dop : {2, 8}) {
    env.ctx.max_query_dop = dop;
    auto parallel = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(xml::SerializeSequence(*serial),
              xml::SerializeSequence(*parallel))
        << "dop=" << dop;
  }
  env.ctx.max_query_dop = 1;
}

TEST(ParallelParityTest, ParallelGroupByMatchesSerial) {
  RunningExample env(30, 3);
  const char* q =
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
      "where $c/CID eq $o/CID "
      "group $o as $p by fn:data($c/CID) as $k "
      "return <G><K>{$k}</K><N>{fn:count($p)}</N></G>";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  Optimizer opt(&env.functions, &env.schemas, nullptr, {});
  ASSERT_TRUE(opt.Optimize(plan).ok());
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 1;
  auto serial = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int dop : {2, 8}) {
    env.ctx.max_query_dop = dop;
    env.ctx.exchange_ordered = true;  // group-by relies on input order
    auto parallel = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(xml::SerializeSequence(*serial),
              xml::SerializeSequence(*parallel))
        << "dop=" << dop;
  }
  env.ctx.max_query_dop = 1;
}

TEST(PhysicalParityTest, GroupByStreamingAndFallbackAcrossDrivers) {
  RunningExample env(20, 3);
  const char* q =
      "for $c in ns3:CUSTOMER() group $c as $p by $c/CID as $k "
      "return <G>{$k}{fn:count($p)}</G>";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  Optimizer opt(&env.functions, &env.schemas, nullptr, {});
  ASSERT_TRUE(opt.Optimize(plan).ok());

  auto streaming = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(streaming.ok());
  auto streamed_api = CollectStream(*plan, env.ctx);
  ASSERT_TRUE(streamed_api.ok());

  for (auto& cl : plan->clauses) cl.pre_clustered = false;
  auto fallback = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(fallback.ok());
  auto fallback_streamed = CollectStream(*plan, env.ctx);
  ASSERT_TRUE(fallback_streamed.ok());

  const std::string expected = xml::SerializeSequence(*streaming);
  EXPECT_EQ(expected, xml::SerializeSequence(*streamed_api));
  EXPECT_EQ(expected, xml::SerializeSequence(*fallback));
  EXPECT_EQ(expected, xml::SerializeSequence(*fallback_streamed));
}

}  // namespace
}  // namespace aldsp::runtime
