// Tests for the benchmark's platform-independent pieces: percentile
// selection, self-time arithmetic and generator determinism. Build and
// run with `python3 perfbench/run.py --selftest` (or ctest in the
// benchmark's build directory).

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace {

using namespace aldsp::perfbench;

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  std::vector<double> v = OneTo(100);
  CHECK(Percentile(v, 0.5) == 50);
  CHECK(Percentile(v, 0.9) == 90);
  CHECK(Percentile(v, 0.99) == 99);
  CHECK(Percentile(v, 1.0) == 100);
  CHECK(Percentile({}, 0.5) == 0);
  CHECK(Percentile({7}, 0.99) == 7);

  CHECK(SamplesBeyond(100, 0.9) == 10);
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SamplesBeyond(999, 0.99) == 9);
  CHECK(SamplesBeyond(0, 0.5) == 0);

  const std::vector<double> ladder = {0.5, 0.9, 0.99, 0.999};
  CHECK(HighestReportablePercentile(10000, ladder) == 0.999);
  CHECK(HighestReportablePercentile(9999, ladder) == 0.99);
  CHECK(HighestReportablePercentile(1000, ladder) == 0.99);
  CHECK(HighestReportablePercentile(999, ladder) == 0.9);
  CHECK(HighestReportablePercentile(100, ladder) == 0.9);
  CHECK(HighestReportablePercentile(99, ladder) == 0.5);
  CHECK(HighestReportablePercentile(20, ladder) == 0.5);
  CHECK(HighestReportablePercentile(19, ladder) == 0);
  // The ladder need not be sorted.
  CHECK(HighestReportablePercentile(1000, {0.99, 0.5, 0.9}) == 0.99);
}

Span MakeSpan(int id, int parent, const std::string& name, int64_t a, int64_t b) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void TestSelfTime() {
  // op [0,100] with children evaluate [10,50] and serialize [40,60]
  // (overlapping), and a late child [90,120] that outlives its parent.
  // evaluate has a nested child ws_call [15,25] and an overlapping
  // first_item [10,30].
  std::vector<Span> spans = {
      MakeSpan(0, -1, "op", 0, 100),
      MakeSpan(1, 0, "evaluate", 10, 50),
      MakeSpan(2, 0, "serialize", 40, 60),
      MakeSpan(3, 0, "submit", 90, 120),
      MakeSpan(4, 1, "ws_call", 15, 25),
      MakeSpan(5, 1, "first_item", 10, 30),
  };
  std::map<std::string, int64_t> self = SelfTimeByName(spans);
  // op: children cover [10,60] and [90,100] -> 60 of 100.
  CHECK(self["op"] == 40);
  // evaluate: children cover [10,30] (ws_call inside first_item) -> 20.
  CHECK(self["evaluate"] == 20);
  CHECK(self["serialize"] == 20);
  CHECK(self["submit"] == 30);
  CHECK(self["ws_call"] == 10);
  CHECK(self["first_item"] == 20);

  // Same-name spans of several ops add up; a span with touching
  // children [0,5] and [5,10] has no self time.
  std::vector<Span> two = {
      MakeSpan(0, -1, "op", 0, 10), MakeSpan(1, 0, "prepare", 0, 5),
      MakeSpan(2, 0, "evaluate", 5, 10), MakeSpan(3, -1, "op", 20, 30),
      MakeSpan(4, 3, "prepare", 22, 24),
  };
  std::map<std::string, int64_t> s2 = SelfTimeByName(two);
  CHECK(s2["op"] == 0 + 8);
  CHECK(s2["prepare"] == 5 + 2);
  CHECK(s2["evaluate"] == 5);
}

void TestSpanRecorder() {
  SpanRecorder rec;
  int root = rec.Begin("op", -1, 7);
  int child = rec.Add("ws_call", root, 7, 5, 9);
  rec.End(root);
  std::vector<Span> spans = rec.Snapshot();
  CHECK(spans.size() == 2);
  CHECK(spans[0].id == root && spans[0].parent == -1 && spans[0].op == 7);
  CHECK(spans[0].end_ns >= spans[0].start_ns);
  CHECK(spans[1].id == child && spans[1].parent == root);
  CHECK(spans[1].start_ns == 5 && spans[1].end_ns == 9);
}

void TestProfileStreams() {
  for (int client = 0; client < 3; ++client) {
    bool writer = client == 2;
    ProfileOpStream a(42, client, writer, 100, 91);
    ProfileOpStream b(42, client, writer, 100, 91);
    ProfileOpStream c(43, client, writer, 100, 91);
    bool differs = false;
    for (int i = 0; i < 500; ++i) {
      ProfileOp x = a.Next(), y = b.Next(), z = c.Next();
      CHECK(x.write == writer);
      CHECK(x.customer == y.customer);
      CHECK(x.new_last_name == y.new_last_name);
      CHECK(x.new_since == y.new_since);
      CHECK(x.customer >= (writer ? 91 : 1) && x.customer <= 100);
      if (writer) {
        CHECK(x.new_last_name.size() >= 3 && x.new_last_name[0] == 'W');
        CHECK(x.new_since >= 1100000000);
      } else {
        CHECK(x.new_last_name.empty());
      }
      differs = differs || x.customer != z.customer ||
                x.new_last_name != z.new_last_name;
    }
    CHECK(differs);
  }
  // Zipf: the hottest key is drawn far more often than the coldest.
  ProfileOpStream r(7, 0, false, 100, 91);
  std::vector<int> hits(101, 0);
  for (int i = 0; i < 20000; ++i) ++hits[static_cast<size_t>(r.Next().customer)];
  int hottest = 0, coldest = 1 << 30;
  for (int i = 1; i <= 100; ++i) {
    hottest = std::max(hottest, hits[static_cast<size_t>(i)]);
    coldest = std::min(coldest, hits[static_cast<size_t>(i)]);
  }
  CHECK(hottest > 20 * std::max(coldest, 1));
}

void TestAdhocStreams() {
  AdhocQueryStream a(5, 0, 40), b(5, 0, 40), c(5, 1, 40), d(6, 0, 40);
  std::set<std::string> distinct;
  int same_as_other_client = 0, same_as_other_seed = 0;
  bool saw_group = false, saw_order = false, saw_cross = false, saw_join = false;
  for (int i = 0; i < 500; ++i) {
    std::string x = a.Next();
    CHECK(x == b.Next());
    same_as_other_client += x == c.Next() ? 1 : 0;
    same_as_other_seed += x == d.Next() ? 1 : 0;
    distinct.insert(x);
    saw_group = saw_group || x.find(" group ") != std::string::npos;
    saw_order = saw_order || x.find(" order by $c/") != std::string::npos;
    saw_cross = saw_cross || x.find("ns2:CREDIT_CARD()") != std::string::npos;
    saw_join = saw_join || x.find("ns3:ORDER()") != std::string::npos;
  }
  CHECK(distinct.size() >= 495);
  CHECK(same_as_other_client < 5);
  CHECK(same_as_other_seed < 5);
  CHECK(saw_group && saw_order && saw_cross && saw_join);
}

void TestModel() {
  CustomerModel m = ModelCustomer(7);
  CHECK(m.cid == "CUST007");
  CHECK(m.orders == 3);
  CHECK(m.has_card);
  CHECK(RatingFor("Smith") == 650);
  CHECK(ProfileCallText(7) == "tns:getProfileByID(\"CUST007\")");
  // 100 customers, odd ones hold a card, floor at customer 11 -> 45 rows.
  std::vector<std::string> rows = FederatedExpected(100, ModelCustomer(11).since);
  CHECK(rows.size() == 45);
  CHECK(rows.front().find("<CID>CUST011</CID>") != std::string::npos);
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestSpanRecorder();
  TestProfileStreams();
  TestAdhocStreams();
  TestModel();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
