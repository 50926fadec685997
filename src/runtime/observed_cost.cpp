#include "runtime/observed_cost.h"

#include <algorithm>
#include <cmath>

namespace aldsp::runtime {

namespace {

int BucketOf(int64_t micros) {
  int b = 0;
  while (micros > 0 && b < ObservedCostModel::LatencyHistogram::kBuckets - 1) {
    micros >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void ObservedCostModel::LatencyHistogram::Record(int64_t micros) {
  counts[BucketOf(micros)] += 1;
  samples += 1;
}

int64_t ObservedCostModel::LatencyHistogram::Percentile(double p) const {
  if (samples <= 0) return -1;
  int64_t target = static_cast<int64_t>(p * static_cast<double>(samples - 1));
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen > target) {
      if (b == 0) return 0;
      // Geometric midpoint of [2^(b-1), 2^b).
      return (int64_t{3} << (b - 1)) / 2;
    }
  }
  return -1;
}

void ObservedCostModel::RecordTableScan(const std::string& source,
                                        const std::string& table,
                                        int64_t rows, int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  TableObservation& obs = tables_[{source, table}];
  obs.rows = rows;
  obs.avg_scan_micros =
      (obs.avg_scan_micros * static_cast<double>(obs.scans) +
       static_cast<double>(micros)) /
      static_cast<double>(obs.scans + 1);
  obs.scans += 1;
}

void ObservedCostModel::RecordStatement(const std::string& source,
                                        int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& [n, avg] = statements_[source];
  avg = (avg * static_cast<double>(n) + static_cast<double>(micros)) /
        static_cast<double>(n + 1);
  n += 1;
}

void ObservedCostModel::RecordStatementSplit(const std::string& source,
                                             int64_t roundtrip_micros,
                                             int64_t transfer_micros,
                                             int64_t rows) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SourceObservation& obs = splits_[source];
    obs.roundtrip.Record(roundtrip_micros);
    if (rows > 0 && transfer_micros >= 0) {
      obs.transfer_micros_total += transfer_micros;
      obs.rows_total += rows;
    }
  }
  RecordStatement(source, roundtrip_micros + std::max<int64_t>(
                                                 transfer_micros, 0));
}

int64_t ObservedCostModel::RoundTripP50Micros(const std::string& source) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = splits_.find(source);
  return it == splits_.end() ? -1 : it->second.roundtrip.Percentile(0.5);
}

double ObservedCostModel::TransferMicrosPerRow(const std::string& source) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = splits_.find(source);
  if (it == splits_.end() || it->second.rows_total <= 0) return -1.0;
  return static_cast<double>(it->second.transfer_micros_total) /
         static_cast<double>(it->second.rows_total);
}

int64_t ObservedCostModel::ObservedRows(const std::string& source,
                                        const std::string& table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find({source, table});
  return it == tables_.end() ? -1 : it->second.rows;
}

int64_t ObservedCostModel::ObservedStatements(
    const std::string& source) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = statements_.find(source);
  return it == statements_.end() ? 0 : it->second.first;
}

double ObservedCostModel::ObservedRoundTripMicros(
    const std::string& source) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = statements_.find(source);
  return it == statements_.end() ? -1.0 : it->second.second;
}

ObservedCostModel::TableObservation ObservedCostModel::TableStats(
    const std::string& source, const std::string& table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tables_.find({source, table});
  return it == tables_.end() ? TableObservation{} : it->second;
}

bool ObservedCostModel::AdvisePPk(const std::string& source,
                                  const std::string& table,
                                  int64_t estimated_outer_rows,
                                  bool default_ppk) const {
  int64_t inner = ObservedRows(source, table);
  if (inner < 0 || estimated_outer_rows < 0) return default_ppk;
  // A full fetch transfers `inner` rows once; PP-k fetches only joining
  // rows but pays ceil(outer/k) round trips. With the default k, PP-k
  // wins when the outer is small relative to the inner table.
  return estimated_outer_rows * 4 < inner;
}

int ObservedCostModel::AdvisePPkBlockSize(
    int64_t estimated_outer_rows) const {
  if (estimated_outer_rows < 0) return 20;
  // Aim for at most ~10 round trips while keeping the paper's default as
  // the floor and bounded middleware block memory as the ceiling.
  int64_t k = estimated_outer_rows / 10;
  return static_cast<int>(std::clamp<int64_t>(k, 20, 500));
}

int ObservedCostModel::AdvisePPkBlockSize(const std::string& source,
                                          int64_t estimated_outer_rows) const {
  int base = AdvisePPkBlockSize(estimated_outer_rows);
  int64_t rtt = RoundTripP50Micros(source);
  double per_row = TransferMicrosPerRow(source);
  if (rtt > 0 && per_row > 0) {
    // Raise k until the fixed round trip is <= ~10% of the block's
    // transfer time: k * per_row >= 9 * rtt.
    int64_t k_amortized = static_cast<int64_t>(
        std::ceil(static_cast<double>(rtt) / (9.0 * per_row)));
    base = std::max(base,
                    static_cast<int>(std::clamp<int64_t>(k_amortized, 20, 500)));
  }
  return base;
}

int ObservedCostModel::AdvisePrefetchDepth(const std::string& source,
                                           int block_rows,
                                           std::string* why) const {
  int64_t rtt = RoundTripP50Micros(source);
  if (rtt <= 0) {
    if (why != nullptr) *why = "cold default";
    return 1;
  }
  double per_row = TransferMicrosPerRow(source);
  // Time the consumer spends absorbing one block: per-row transfer plus
  // a floor for mid-tier join work (which we do not observe directly).
  double consume = std::max(per_row > 0 ? per_row * block_rows : 0.0, 200.0);
  if (why != nullptr) {
    *why = "advised rtt_p50=" + std::to_string(rtt) + "us consume=" +
           std::to_string(std::llround(consume)) + "us";
  }
  int64_t depth = static_cast<int64_t>(
      std::ceil(static_cast<double>(rtt) / consume));
  return static_cast<int>(std::clamp<int64_t>(depth, 1, 8));
}

std::string ObservedCostModel::AdviceSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // std::map iteration order makes the snapshot deterministic for a
  // given observation state, so string equality is state equality.
  std::string out;
  for (const auto& [key, obs] : tables_) {
    out += key.first;
    out += '.';
    out += key.second;
    out += '=';
    out += std::to_string(obs.rows);
    out += ';';
  }
  out += '|';
  for (const auto& [source, obs] : splits_) {
    const int64_t p50 = obs.roundtrip.Percentile(0.5);
    out += source;
    out += '~';
    out += std::to_string(p50 < 0 ? -1 : BucketOf(p50));
    out += ';';
  }
  return out;
}

void ObservedCostModel::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  tables_.clear();
  statements_.clear();
  splits_.clear();
}

}  // namespace aldsp::runtime
