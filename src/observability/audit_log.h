#ifndef ALDSP_OBSERVABILITY_AUDIT_LOG_H_
#define ALDSP_OBSERVABILITY_AUDIT_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aldsp::observability {

/// One record per query execution, mirroring the per-service invocation
/// audits the ALDSP console surfaces. Kept JSONL-serializable and flat
/// so external collectors can ingest AuditLog() lines unchanged.
struct AuditRecord {
  int64_t seq = 0;            // assigned by the log, monotonically increasing
  uint64_t query_hash = 0;    // FNV-1a of the full query text
  uint64_t fingerprint = 0;   // plan fingerprint (0 if compile failed)
  uint64_t statement_fingerprint = 0;  // statement identity (0 if unknown)
  std::string query_head;     // leading fragment of the text for readability
  std::string principal;
  std::string outcome;        // "ok" or the failing status code name
  std::vector<std::string> sources;  // data services touched, sorted unique
  int64_t sql_pushdowns = 0;
  int64_t rows_returned = 0;
  int64_t bytes_returned = 0;
  int64_t wall_micros = 0;
  int64_t compile_micros = 0;  // 0 on plan-cache hit
  bool plan_cache_hit = false;
  int64_t function_cache_hits = 0;
  int64_t function_cache_misses = 0;
  int64_t timeouts = 0;
  int64_t failovers = 0;
  int64_t security_denials = 0;  // elements redacted by access control
};

/// Bounded ring of the most recent execution audit records. Appends are
/// O(1) and lock-scoped so the hot path stays cheap; the full history
/// count survives eviction via `total_appended`.
class ExecutionAuditLog {
 public:
  explicit ExecutionAuditLog(size_t capacity = 1024) : capacity_(capacity) {}

  /// Assigns the record's sequence number and appends, evicting the
  /// oldest record when full. Returns the assigned sequence number.
  int64_t Append(AuditRecord record);

  /// Oldest-to-newest copy of the retained records.
  std::vector<AuditRecord> Records() const;
  int64_t total_appended() const;
  size_t capacity() const { return capacity_; }

  void Clear();

  static uint64_t HashQuery(std::string_view text);
  static std::string RecordJson(const AuditRecord& record);
  /// One JSON object per line, oldest first.
  static std::string RenderJsonl(const std::vector<AuditRecord>& records);

 private:
  size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<AuditRecord> ring_;
  int64_t next_seq_ = 0;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_AUDIT_LOG_H_
