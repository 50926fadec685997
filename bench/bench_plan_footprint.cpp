// Live heap bytes a cached plan keeps: the plan cache (paper §3.3, Fig. 2)
// holds compiled plans resident, so their size sets both peak RSS and the
// cost of freeing an evicted plan. This probe replaces the global
// operator new/delete with a size-tagged counter, warms a platform built
// like the perfbench `adhoc_query` environment, then prepares N distinct
// texts (every one a plan-cache miss) and reports the live bytes they
// leave behind per plan, with the allocation sizes that account for them.
//
//   ./bench/bench_plan_footprint [plans=50]
//
// Requested sizes are counted (not allocator chunks), so a make_shared
// node of type T shows up as sizeof(T) + 16 bytes of control block.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "perfbench/src/bench_lib.h"
#include "perfbench/src/env.h"
#include "relational/sql_ast.h"
#include "xquery/ast.h"

namespace {

constexpr size_t kMaxTracked = 4096;
constexpr size_t kHeader = 16;  // keeps the returned block 16-aligned

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_live_by_size[kMaxTracked + 1];

void* Allocate(size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(raw) = n;
  g_live_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  g_live_by_size[std::min(n, kMaxTracked)].fetch_add(1,
                                                     std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void Release(void* p) {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  size_t n = *static_cast<size_t*>(raw);
  g_live_bytes.fetch_sub(static_cast<int64_t>(n), std::memory_order_relaxed);
  g_live_by_size[std::min(n, kMaxTracked)].fetch_sub(1,
                                                     std::memory_order_relaxed);
  std::free(raw);
}

struct Snapshot {
  int64_t bytes = 0;
  std::vector<int64_t> by_size;
};

Snapshot Take() {
  Snapshot s;
  s.bytes = g_live_bytes.load();
  s.by_size.resize(kMaxTracked + 1);
  for (size_t i = 0; i <= kMaxTracked; ++i) s.by_size[i] = g_live_by_size[i].load();
  return s;
}

// Live bytes that `texts` leave behind once each has been prepared.
template <typename MakeText>
void Measure(const char* label, aldsp::server::DataServicePlatform& platform,
             int plans, MakeText make_text) {
  platform.ClearPlanCache();
  platform.plan_history().Reset();
  std::vector<std::string> texts;
  for (int i = 0; static_cast<int>(texts.size()) < plans; ++i) {
    std::string q = make_text(i);
    if (std::find(texts.begin(), texts.end(), q) == texts.end()) {
      texts.push_back(std::move(q));
    }
  }
  Snapshot before = Take();
  for (const auto& q : texts) {
    bool hit = true;
    auto plan = platform.Prepare(q, &hit);
    if (!plan.ok() || hit) {
      std::fprintf(stderr, "%s: %s did not compile as a miss\n", label,
                   q.c_str());
      std::exit(1);
    }
  }
  Snapshot after = Take();
  const double n = plans;
  std::printf("%s: %d plans, %.1f KB live per plan\n", label, plans,
              static_cast<double>(after.bytes - before.bytes) / n / 1024.0);
  struct Row {
    size_t size;
    double per_plan;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i <= kMaxTracked; ++i) {
    int64_t d = after.by_size[i] - before.by_size[i];
    if (d > 0) rows.push_back({i, static_cast<double>(d) / n});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.per_plan * a.size > b.per_plan * b.size;
  });
  std::printf("  %-10s %-14s %s\n", "size (B)", "allocs/plan", "KB/plan");
  for (size_t i = 0; i < rows.size() && i < 8; ++i) {
    std::printf("  %-10zu %-14.1f %.2f\n", rows[i].size, rows[i].per_plan,
                rows[i].per_plan * static_cast<double>(rows[i].size) / 1024.0);
  }
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }

int main(int argc, char** argv) {
  using namespace aldsp;
  const int plans = argc > 1 ? std::max(1, std::atoi(argv[1])) : 50;
  std::printf("sizeof(xquery::Expr) = %zu (node chunk %zu)\n",
              sizeof(xquery::Expr), sizeof(xquery::Expr) + 16);
  std::printf("sizeof(relational::SqlExpr) = %zu (node chunk %zu)\n",
              sizeof(relational::SqlExpr), sizeof(relational::SqlExpr) + 16);

  // The perfbench adhoc_query environment: 40 customers, virtual-time
  // latency, 100 warm-up queries from an independent stream.
  perfbench::EnvOptions options;
  options.customers = 40;
  options.roundtrip_micros = 500;
  options.per_row_micros = 2;
  perfbench::Env env(options);
  perfbench::AdhocQueryStream warm(1, 99, options.customers);
  for (int i = 0; i < 100; ++i) {
    auto r = env.platform().Execute(warm.Next());
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }

  perfbench::AdhocQueryStream stream(1, 0, options.customers);
  Measure("adhoc_query", env.platform(), plans,
          [&](int) { return stream.Next(); });
  Measure("getProfileByID", env.platform(), std::min(plans, options.customers),
          [](int i) { return perfbench::ProfileCallText(i + 1); });
  return 0;
}
