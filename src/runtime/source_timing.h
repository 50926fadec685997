#ifndef ALDSP_RUNTIME_SOURCE_TIMING_H_
#define ALDSP_RUNTIME_SOURCE_TIMING_H_

// Source-call helpers shared by the evaluator and the physical operators:
// wall-clock deltas around source round trips, the virtual-latency
// correction for LatencyModels that run without sleeping, the health
// board's steady timestamps and breaker gate, the round-trip vs
// per-row-transfer split, and the one place a completed source call is
// observed (health, metrics, observed-cost model, trace).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "relational/engine.h"
#include "runtime/context.h"

namespace aldsp::runtime {

inline int64_t MicrosSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Snapshot of a source's simulated-latency clock: when the LatencyModel
// runs in virtual time (sleep == false) the wall clock misses the
// modeled round trips, so trace events fold in the clock's growth.
inline int64_t VirtualLatencyMark(relational::Database* db) {
  if (db == nullptr || db->latency_model().sleep) return -1;
  return db->stats().simulated_latency_micros.load();
}

inline int64_t VirtualLatencyDelta(relational::Database* db, int64_t mark) {
  if (mark < 0) return 0;
  return db->stats().simulated_latency_micros.load() - mark;
}

// Steady-clock "now" for the source health board's breaker timestamps.
inline int64_t HealthNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Splits a relational source event's observed micros into the
// LatencyModel components: one round trip plus `rows` per-row transfer
// micros, each clipped to what was actually observed. Without a
// configured model (or a db) the split is unknown: the whole duration
// is reported as round trip (*roundtrip = micros).
inline void SplitSourceMicros(relational::Database* db, int64_t rows,
                              int64_t micros, int64_t* roundtrip,
                              int64_t* transfer) {
  *roundtrip = micros;
  *transfer = 0;
  if (db == nullptr) return;
  const relational::LatencyModel& lm = db->latency_model();
  if (lm.roundtrip_micros <= 0 && lm.per_row_micros <= 0) return;
  *roundtrip = std::min<int64_t>(micros, std::max<int64_t>(lm.roundtrip_micros, 0));
  *transfer =
      std::min<int64_t>(micros - *roundtrip,
                        std::max<int64_t>(rows, 0) * lm.per_row_micros);
}

// Circuit-breaker admission gate, consulted before every source
// interaction. An open breaker rejects immediately (fast SourceError, no
// round trip, no timeout) — fn-bea:fail-over catches it like any other
// source failure and takes the alternate.
inline Status GateSource(const RuntimeContext& ctx, const std::string& source) {
  if (ctx.health != nullptr &&
      !ctx.health->AllowRequest(source, HealthNowMicros())) {
    return Status::SourceError("circuit breaker open for source '" + source +
                               "'");
  }
  return Status::OK();
}

// Observes one completed source call, once, where it happened, in every
// trace mode: the health board's outcome; and for a successful call the
// metrics latency sample, the observed-cost model (statements — pushed
// SQL and PP-k fetches — feed the round-trip/transfer split; a call that
// scanned a whole `table` feeds its cardinality) and the trace event.
// `db` is the relational source behind the call (null otherwise: no
// split). `detail()` builds the event text; it runs only when the trace
// keeps events, so counters-mode traces never format SQL.
template <typename DetailFn>
void ObserveSourceCall(const RuntimeContext& ctx, QueryTrace::EventKind kind,
                       const std::string& source, relational::Database* db,
                       const std::string& table, int64_t rows, int64_t micros,
                       bool ok, DetailFn&& detail) {
  if (ctx.health != nullptr) {
    if (ok) {
      ctx.health->NoteSuccess(source, micros, HealthNowMicros());
    } else {
      ctx.health->NoteFailure(source, HealthNowMicros());
    }
  }
  if (!ok) return;
  if (ctx.metrics != nullptr) ctx.metrics->RecordSourceLatency(source, micros);
  int64_t roundtrip = -1;
  int64_t transfer = 0;
  if (db != nullptr) {
    SplitSourceMicros(db, rows, micros, &roundtrip, &transfer);
  }
  if (ctx.observed != nullptr) {
    if (roundtrip >= 0 && (kind == QueryTrace::EventKind::kSql ||
                           kind == QueryTrace::EventKind::kPPkFetch)) {
      ctx.observed->RecordStatementSplit(source, roundtrip, transfer, rows);
    }
    if (!table.empty()) {
      ctx.observed->RecordTableScan(source, table, rows, micros);
    }
  }
  if (ctx.trace != nullptr) {
    ctx.trace->AddEvent(kind, source,
                        ctx.trace->keeps_events() ? detail() : std::string(),
                        rows, micros, table, roundtrip, transfer);
  }
}

}  // namespace aldsp::runtime

#endif  // ALDSP_RUNTIME_SOURCE_TIMING_H_
