#ifndef ALDSP_PERFBENCH_BENCH_LIB_H_
#define ALDSP_PERFBENCH_BENCH_LIB_H_

// Platform-independent pieces of the benchmark driver: the seeded random
// streams and op generators, percentile selection, and the span recorder
// with its self-time arithmetic. Nothing here links against the platform,
// so perfbench_tests can check it in isolation.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace aldsp::perfbench {

// ----- Seeded randomness ----------------------------------------------------

/// SplitMix64: small, fast, and identical on every platform, so a seed
/// names one op sequence everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [0, n); n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Independent stream for (seed, stream id): each client draws from its
/// own stream, so its op sequence does not depend on thread timing.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(int n, double s);
  int Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ----- The running example's data model -----------------------------------

/// Customer i (1-based) of the generated running-example data. The data
/// itself is a fixed function of the index; the seed only picks which
/// keys the clients touch and the values they write.
struct CustomerModel {
  std::string cid;
  std::string first_name;
  std::string last_name;
  std::string ssn;
  int64_t since = 0;
  int orders = 0;
  bool has_card = false;
};

CustomerModel ModelCustomer(int i);
std::string CustomerId(int i);
/// The rating web service's answer for a last name.
int64_t RatingFor(const std::string& last_name);

// ----- Op generators ----------------------------------------------------------

/// One op of the profile_rw workload. Readers only read `customer`; the
/// writer reads it, sets LAST_NAME and SINCE to the written values,
/// submits, and reads it back.
struct ProfileOp {
  bool write = false;
  int customer = 0;  // 1-based index
  std::string new_last_name;
  int64_t new_since = 0;
};

/// A client's op stream for profile_rw. Readers draw Zipf-distributed
/// keys over all customers through a seeded rank->key permutation; the
/// writer cycles pseudo-randomly over its own key range
/// [writer_first, customers].
class ProfileOpStream {
 public:
  ProfileOpStream(uint64_t seed, int client, bool writer, int customers,
                  int writer_first);
  ProfileOp Next();

 private:
  Rng rng_;
  Zipf zipf_;
  std::vector<int> permutation_;
  bool writer_;
  int customers_;
  int writer_first_;
};

/// The name of the profile read method call for customer i.
std::string ProfileCallText(int customer);

/// A client's stream of generated ad hoc FLWORs over customers
/// [1, customers]. Each query varies filter column, comparison, literal,
/// projection, optional order by, optional CUSTOMER-ORDER join (same
/// source), optional group by and optional CUSTOMER-CREDIT_CARD join
/// (cross source); a seeded SINCE bound makes nearly every text distinct.
class AdhocQueryStream {
 public:
  AdhocQueryStream(uint64_t seed, int client, int customers);
  std::string Next();

 private:
  Rng rng_;
  int customers_;
};

/// The federated_stream query: CUSTOMER joined with CREDIT_CARD across
/// the two databases, customers with SINCE >= since_floor only.
std::string FederatedQueryText(int64_t since_floor);
/// The items that query must stream, serialized, in order.
std::vector<std::string> FederatedExpected(int customers, int64_t since_floor);

// ----- Percentiles -------------------------------------------------------------

/// Nearest-rank percentile of `values` (need not be sorted); q in (0, 1].
/// Returns 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
int64_t SamplesBeyond(int64_t n, double q);

/// The highest of `ladder` that leaves at least `min_beyond` samples
/// beyond it among n samples, or 0 when none does.
double HighestReportablePercentile(int64_t n,
                                   const std::vector<double>& ladder,
                                   int64_t min_beyond = 10);

// ----- Spans -------------------------------------------------------------------

/// One interval the driver timed around a call into the platform.
struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  int64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Each span's duration minus the part of its interval that its direct
/// children cover (their union, clipped to the parent), summed per span
/// name, in nanoseconds.
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans);

/// Thread-safe in-memory span store; spans are written out at the end of
/// a run, never during it.
class SpanRecorder {
 public:
  static int64_t NowNs();
  /// Opens a span and returns its id.
  int Begin(const std::string& name, int parent, int64_t op);
  void End(int id);
  /// Records an already-measured interval.
  int Add(const std::string& name, int parent, int64_t op, int64_t start_ns,
          int64_t end_ns);
  std::vector<Span> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ----- Output -------------------------------------------------------------------

std::string JsonEscape(const std::string& s);

}  // namespace aldsp::perfbench

#endif  // ALDSP_PERFBENCH_BENCH_LIB_H_
