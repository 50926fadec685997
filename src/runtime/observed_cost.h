#ifndef ALDSP_RUNTIME_OBSERVED_COST_H_
#define ALDSP_RUNTIME_OBSERVED_COST_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace aldsp::runtime {

/// Observed-cost instrumentation — an implementation of the paper's §9
/// roadmap item: "skip past 'old school' techniques that rely on static
/// cost models and difficult-to-obtain statistics, instead instrumenting
/// the system and basing its optimization decisions (such as evaluation
/// ordering and parallelization) only on actually observed data
/// characteristics and data source behavior."
///
/// The runtime records what each source actually did (rows returned per
/// table, statement round-trip time); the optimizer consults these
/// observations when picking cross-source join methods and PP-k block
/// sizes on the next compilation.
class ObservedCostModel {
 public:
  struct TableObservation {
    int64_t rows = -1;            // last observed cardinality
    int64_t scans = 0;            // times observed
    double avg_scan_micros = 0;   // running average full-scan time
  };

  /// Log2-bucketed latency histogram: bucket b holds samples in
  /// [2^(b-1), 2^b) microseconds, so forty buckets cover sub-micro
  /// through ~15 minutes with constant memory and a cheap percentile.
  struct LatencyHistogram {
    static constexpr int kBuckets = 40;
    int64_t counts[kBuckets] = {0};
    int64_t samples = 0;

    void Record(int64_t micros);
    /// Representative value (geometric bucket midpoint) at percentile
    /// `p` in [0, 1], or -1 when empty.
    int64_t Percentile(double p) const;
  };

  /// Records a completed table fetch.
  void RecordTableScan(const std::string& source, const std::string& table,
                       int64_t rows, int64_t micros);
  /// Records a statement round trip (any SQL execution).
  void RecordStatement(const std::string& source, int64_t micros);
  /// Records a statement with its cost split into the fixed round-trip
  /// part and the per-row transfer part (rows shipped). Also feeds the
  /// aggregate RecordStatement average with the total. The histograms
  /// these populate drive the adaptive PP-k block size / prefetch depth.
  void RecordStatementSplit(const std::string& source,
                            int64_t roundtrip_micros, int64_t transfer_micros,
                            int64_t rows);

  /// Last observed cardinality of a table, or -1 if never observed.
  int64_t ObservedRows(const std::string& source,
                       const std::string& table) const;
  /// Statements observed from a source (pushed SQL and PP-k fetches).
  int64_t ObservedStatements(const std::string& source) const;
  /// Running average statement round-trip time for a source (-1 unknown).
  double ObservedRoundTripMicros(const std::string& source) const;
  /// Median fixed round-trip cost from the split histogram (-1 unknown).
  int64_t RoundTripP50Micros(const std::string& source) const;
  /// Average transfer micros per shipped row (-1 unknown).
  double TransferMicrosPerRow(const std::string& source) const;

  TableObservation TableStats(const std::string& source,
                              const std::string& table) const;

  /// Join-method advice for a cross-source join whose right side scans
  /// `table`: returns true when PP-k is advisable (the outer is small
  /// relative to the observed inner cardinality, so parameterized
  /// fetches beat a full transfer), false when a one-shot full fetch
  /// (index nested loop) is expected to win. Unknown cardinalities give
  /// no advice (returns `default_ppk`).
  bool AdvisePPk(const std::string& source, const std::string& table,
                 int64_t estimated_outer_rows, bool default_ppk) const;

  /// Block-size advice: balances round trips against block memory given
  /// the estimated outer cardinality; clamped to [20, 500] so the paper's
  /// empirical default is the floor.
  int AdvisePPkBlockSize(int64_t estimated_outer_rows) const;

  /// Source-aware block-size advice: starts from the cardinality-only
  /// heuristic above, then (when split observations exist) raises k until
  /// the fixed round-trip cost amortizes to <= ~10% of the block's
  /// transfer time. Same [20, 500] clamp.
  int AdvisePPkBlockSize(const std::string& source,
                         int64_t estimated_outer_rows) const;

  /// Prefetch-depth advice for a depth-d PP-k pipeline against `source`
  /// with blocks of `block_rows` parameters: roughly round-trip / block
  /// consumption time, so enough fetches are in flight to keep the
  /// consumer from stalling. Clamped to [1, 8]; 1 (the classic double
  /// buffer) when the source has no split observations yet. When `why`
  /// is non-null it receives the inputs behind the answer ("advised
  /// rtt_p50=..us consume=..us" or "cold default").
  int AdvisePrefetchDepth(const std::string& source, int block_rows,
                          std::string* why = nullptr) const;

  /// Deterministic summary of the advice-relevant inputs: observed row
  /// counts per (source, table) plus the log2 bucket of each source's
  /// round-trip p50 (bucketed because raw p50 jitters without changing
  /// any advice). The plan lifecycle plane snapshots this at compile
  /// time; when a statement recompiles into a different plan shape,
  /// comparing snapshots attributes the flip to cost-model-advice change
  /// versus plan-cache eviction.
  std::string AdviceSnapshot() const;

  void Clear();

 private:
  struct SourceObservation {
    LatencyHistogram roundtrip;
    int64_t transfer_micros_total = 0;
    int64_t rows_total = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::string>, TableObservation> tables_;
  std::map<std::string, std::pair<int64_t, double>> statements_;  // n, avg
  std::map<std::string, SourceObservation> splits_;
};

}  // namespace aldsp::runtime

#endif  // ALDSP_RUNTIME_OBSERVED_COST_H_
