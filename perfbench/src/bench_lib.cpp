#include "bench_lib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace aldsp::perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x100000001b3ULL + stream);
  return mix.Next();
}

Zipf::Zipf(int n, double s) {
  cdf_.reserve(static_cast<size_t>(std::max(n, 0)));
  double total = 0;
  for (int k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Sample(Rng& rng) const {
  double u = rng.Unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return static_cast<int>(cdf_.size()) - 1;
  return static_cast<int>(it - cdf_.begin());
}

// ----- Data model -------------------------------------------------------------

namespace {
const char* const kFirst[] = {"Ann", "Bob", "Carol", "Dan", "Eve"};
const char* const kLast[] = {"Jones", "Smith", "Lee", "Kim", "Novak"};
constexpr int64_t kSinceBase = 1000000000;
constexpr int64_t kDay = 86400;
}  // namespace

std::string CustomerId(int i) {
  char cid[24];
  std::snprintf(cid, sizeof(cid), "CUST%03d", i);
  return cid;
}

CustomerModel ModelCustomer(int i) {
  CustomerModel m;
  m.cid = CustomerId(i);
  m.first_name = kFirst[i % 5];
  m.last_name = kLast[i % 5];
  m.ssn = "SSN-" + std::to_string(1000 + i);
  m.since = kSinceBase + i * kDay;
  m.orders = i % 4;
  m.has_card = i % 2 == 1;
  return m;
}

int64_t RatingFor(const std::string& last_name) {
  return 600 + 10 * static_cast<int64_t>(last_name.size());
}

// ----- profile_rw ---------------------------------------------------------------

ProfileOpStream::ProfileOpStream(uint64_t seed, int client, bool writer,
                                 int customers, int writer_first)
    : rng_(StreamSeed(seed, 100 + static_cast<uint64_t>(client))),
      zipf_(customers, 1.0),
      writer_(writer),
      customers_(customers),
      writer_first_(writer_first) {
  // The rank -> key permutation is shared by every reader of a run, so
  // all readers agree on which keys are hot.
  Rng perm(StreamSeed(seed, 1));
  permutation_.resize(static_cast<size_t>(customers));
  for (int i = 0; i < customers; ++i) permutation_[static_cast<size_t>(i)] = i + 1;
  for (int i = customers - 1; i > 0; --i) {
    std::swap(permutation_[static_cast<size_t>(i)],
              permutation_[perm.Below(static_cast<uint64_t>(i) + 1)]);
  }
}

ProfileOp ProfileOpStream::Next() {
  ProfileOp op;
  op.write = writer_;
  if (!writer_) {
    op.customer = permutation_[static_cast<size_t>(zipf_.Sample(rng_))];
    return op;
  }
  int range = customers_ - writer_first_ + 1;
  op.customer = writer_first_ + static_cast<int>(rng_.Below(static_cast<uint64_t>(range)));
  int len = 3 + static_cast<int>(rng_.Below(8));
  op.new_last_name.assign(static_cast<size_t>(len), 'W');
  for (int i = 1; i < len; ++i) {
    op.new_last_name[static_cast<size_t>(i)] = static_cast<char>('a' + rng_.Below(26));
  }
  op.new_since = 1100000000 + static_cast<int64_t>(rng_.Below(100000000));
  return op;
}

std::string ProfileCallText(int customer) {
  return "tns:getProfileByID(\"" + CustomerId(customer) + "\")";
}

// ----- adhoc_query ----------------------------------------------------------------

AdhocQueryStream::AdhocQueryStream(uint64_t seed, int client, int customers)
    : rng_(StreamSeed(seed, 200 + static_cast<uint64_t>(client))),
      customers_(customers) {}

namespace {

const char* const kCompare[] = {"eq", "ne", "lt", "le", "gt", "ge"};
const char* const kColumns[] = {"CID", "FIRST_NAME", "LAST_NAME", "SSN",
                                "SINCE"};

std::string Pick(Rng& rng, const char* const* options, size_t n) {
  return options[rng.Below(n)];
}

// A literal of the right type for `column`, near the data's actual values
// so every comparison selects a nontrivial subset.
std::string Literal(Rng& rng, const std::string& column, int customers) {
  int i = 1 + static_cast<int>(rng.Below(static_cast<uint64_t>(customers)));
  CustomerModel m = ModelCustomer(i);
  if (column == "SINCE") return std::to_string(m.since);
  if (column == "CID") return "\"" + m.cid + "\"";
  if (column == "FIRST_NAME") return "\"" + m.first_name + "\"";
  if (column == "LAST_NAME") return "\"" + m.last_name + "\"";
  return "\"" + m.ssn + "\"";
}

}  // namespace

std::string AdhocQueryStream::Next() {
  Rng& r = rng_;
  const bool join_order = r.Below(3) == 0;
  const bool join_card = r.Below(4) == 0;
  const bool group = r.Below(4) == 0;
  const bool order = !group && r.Below(2) == 0;

  std::string q = "for $c in ns3:CUSTOMER()";
  if (join_order) q += ", $o in ns3:ORDER()";
  if (join_card) q += ", $k in ns2:CREDIT_CARD()";

  std::string column = Pick(r, kColumns, 5);
  q += " where $c/" + column + " " + Pick(r, kCompare, 6) + " " +
       Literal(r, column, customers_);
  // The seeded SINCE floor makes nearly every generated text distinct.
  int64_t floor = 1000000000 +
                  static_cast<int64_t>(r.Below(static_cast<uint64_t>(customers_) * 86400));
  q += " and $c/SINCE ge " + std::to_string(floor);
  if (join_order) q += " and $o/CID eq $c/CID";
  if (join_card) q += " and $k/CID eq $c/CID";

  if (group) {
    std::string key = r.Below(2) == 0 ? "LAST_NAME" : "FIRST_NAME";
    std::string grouped = join_order ? "$o" : "$c";
    q += " group " + grouped + " as $g by fn:data($c/" + key +
         ") as $key order by $key return <G><K>{$key}</K><N>{fn:count($g)}</N></G>";
    return q;
  }
  if (order) {
    std::string key = Pick(r, kColumns, 5);
    q += " order by $c/" + key + (r.Below(2) == 0 ? " descending" : "") +
         ", $c/CID";
    if (join_order) q += ", $o/OID";
  }
  // Projection: one to three customer columns, plus the joined rows' keys.
  q += " return <R>";
  int picked = 0;
  uint64_t mask = 0;
  while (picked == 0) {
    mask = r.Below(32);
    picked = __builtin_popcountll(mask);
    if (picked > 3) picked = 0;
  }
  for (int c = 0; c < 5; ++c) {
    if ((mask >> c) & 1) q += std::string("{$c/") + kColumns[c] + "}";
  }
  if (join_order) q += "{$o/OID}{$o/AMOUNT}";
  if (join_card) q += "{$k/CCN}";
  q += "</R>";
  return q;
}

// ----- federated_stream -----------------------------------------------------------

std::string FederatedQueryText(int64_t since_floor) {
  return "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
         "where $cc/CID eq $c/CID and $c/SINCE ge " +
         std::to_string(since_floor) +
         " return <CARD><CID>{fn:data($c/CID)}</CID>"
         "<CCN>{fn:data($cc/CCN)}</CCN>"
         "<LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME></CARD>";
}

std::vector<std::string> FederatedExpected(int customers, int64_t since_floor) {
  std::vector<std::string> out;
  for (int i = 1; i <= customers; ++i) {
    CustomerModel m = ModelCustomer(i);
    if (!m.has_card || m.since < since_floor) continue;
    out.push_back("<CARD><CID>" + m.cid + "</CID><CCN>CC-" +
                  std::to_string(i) + "</CCN><LAST_NAME>" + m.last_name +
                  "</LAST_NAME></CARD>");
  }
  return out;
}

// ----- Percentiles ------------------------------------------------------------------

namespace {
int64_t NearestRank(int64_t n, double q) {
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, std::max<int64_t>(n, 1));
}
}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  int64_t rank = NearestRank(static_cast<int64_t>(values.size()), q);
  auto nth = values.begin() + (rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - NearestRank(n, q);
}

double HighestReportablePercentile(int64_t n,
                                   const std::vector<double>& ladder,
                                   int64_t min_beyond) {
  double best = 0;
  for (double q : ladder) {
    if (q > best && SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

// ----- Spans -------------------------------------------------------------------------

std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (auto [a, b] : it->second) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b > a) iv.push_back({a, b});
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_a = 0, cur_b = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += cur_b - cur_a;
    }
    self[s.name] += (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent, int64_t op) {
  int64_t now = NowNs();
  return Add(name, parent, op, now, now);
}

void SpanRecorder::End(int id) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int SpanRecorder::Add(const std::string& name, int parent, int64_t op,
                      int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

// ----- Output ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace aldsp::perfbench
