// The deterministic fault-injection harness (tests/support/fault_executor.*)
// and allocation failures inside the intern path: seeded fault decisions
// replay identically, parallel_for stays correct under delays/drops —
// including a plan that drops every helper — and an allocation that fails
// anywhere in an intern unwinds cleanly.  Labeled `parallel` so the TSan CI
// job runs the whole suite under the race detector.
#include "fault_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "support/interner.hpp"
#include "support/parallel.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/expr.hpp"

// --- test-only global allocator: fails one allocation on demand ---
//
// This binary replaces the global operator new/delete.  `g_alloc_countdown`
// is one process-wide countdown: when armed with n, the n-th allocation made
// inside an AllocFailureScope (on any thread) throws std::bad_alloc, and the
// countdown disarms.  Allocations outside a scope — gtest, the ThreadPool
// queue — are never counted, so only the code under test sees a failure.
namespace {

std::atomic<long long> g_alloc_countdown{-1};  // < 0: disarmed
thread_local int t_alloc_scope_depth = 0;

void* counted_alloc(std::size_t n) {
  // fetch_sub makes exactly one thread observe the 1 -> 0 transition; later
  // callers drift the counter below zero, which reads as disarmed.
  if (t_alloc_scope_depth > 0 &&
      g_alloc_countdown.load(std::memory_order_relaxed) >= 0 &&
      g_alloc_countdown.fetch_sub(1, std::memory_order_relaxed) == 1) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so a sanitizer runtime (which supplies
// its own) never frees through free() what it allocated as operator new.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace soap::support {
namespace {

/// Counts this thread's allocations against `g_alloc_countdown` while alive.
struct AllocFailureScope {
  AllocFailureScope() { ++t_alloc_scope_depth; }
  ~AllocFailureScope() { --t_alloc_scope_depth; }
  AllocFailureScope(const AllocFailureScope&) = delete;
  AllocFailureScope& operator=(const AllocFailureScope&) = delete;
};

/// Runs `body` in a scope whose n-th allocation fails; returns whether
/// `body` threw std::bad_alloc.  Disarms the countdown either way.
template <class Body>
bool fails_at(long long n, Body body) {
  g_alloc_countdown.store(n, std::memory_order_relaxed);
  bool threw = false;
  try {
    AllocFailureScope scope;
    body();
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  g_alloc_countdown.store(-1, std::memory_order_relaxed);
  return threw;
}

std::size_t live_nodes() { return sym::expr_intern_stats().live_nodes; }

// --- seeded decisions replay identically ---

std::vector<int> drop_pattern(std::uint64_t seed) {
  SerialExecutor inner;  // runs surviving submissions inline
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_permille = 300;
  FaultInjectingExecutor exec(inner, plan);
  std::vector<int> ran;
  for (int i = 0; i < 200; ++i) {
    exec.submit([&ran, i] { ran.push_back(i); });
  }
  return ran;
}

TEST(FaultInjectingExecutor, DropDecisionsAreDeterministicPerSeed) {
  const std::vector<int> first = drop_pattern(7);
  EXPECT_EQ(first, drop_pattern(7));
  EXPECT_NE(first, drop_pattern(8));  // a different seed is a different plan
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 200u);  // ~30% dropped
}

TEST(FaultInjectingExecutor, StatsCountEveryDecision) {
  SerialExecutor inner;
  FaultPlan plan;
  plan.seed = 3;
  plan.drop_permille = 500;
  FaultInjectingExecutor exec(inner, plan);
  std::size_t ran = 0;
  for (int i = 0; i < 100; ++i) {
    exec.submit([&ran] { ++ran; });
  }
  const auto stats = exec.stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.dropped, 100u - ran);
  EXPECT_GT(stats.dropped, 0u);
}

TEST(FaultInjectingExecutor, ReorderHoldsThenFlushReleasesEverything) {
  SerialExecutor inner;
  FaultPlan plan;
  plan.seed = 11;
  plan.reorder_window = 8;
  FaultInjectingExecutor exec(inner, plan);
  std::vector<int> ran;
  for (int i = 0; i < 40; ++i) {
    exec.submit([&ran, i] { ran.push_back(i); });
  }
  EXPECT_LT(ran.size(), 40u);  // up to reorder_window submissions held
  exec.flush();
  ASSERT_EQ(ran.size(), 40u);
  std::vector<int> sorted = ran;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expected(40);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(sorted, expected);          // every task ran exactly once
  EXPECT_GT(exec.stats().reordered, 0u);
  EXPECT_NE(ran, expected);             // and not in submission order
}

TEST(FaultInjectingExecutor, DestructorFlushesHeldSubmissions) {
  SerialExecutor inner;
  std::size_t ran = 0;
  {
    FaultPlan plan;
    plan.reorder_window = 64;  // hold everything
    FaultInjectingExecutor exec(inner, plan);
    for (int i = 0; i < 10; ++i) {
      exec.submit([&ran] { ++ran; });
    }
    EXPECT_EQ(ran, 0u);
  }
  EXPECT_EQ(ran, 10u);
}

// --- parallel_for stays correct under faults ---

TEST(FaultInjection, ParallelForCompletesAndCountsEveryIndexUnderFaults) {
  // Seeds 21-23 delay and drop a share of the helpers; the last plan
  // (drop_permille = 1000) drops every helper, so the caller must drain
  // the whole loop itself (progress never depends on the executor).  A
  // violation shows up as the CTest timeout.
  std::vector<FaultPlan> plans;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.delay_permille = 300;
    plan.delay_max_us = 50;
    plan.drop_permille = 300;
    plans.push_back(plan);
  }
  FaultPlan drop_all;
  drop_all.seed = 9;
  drop_all.drop_permille = 1000;
  plans.push_back(drop_all);

  ThreadPool pool(4);
  for (const FaultPlan& plan : plans) {
    FaultInjectingExecutor exec(pool, plan);
    ParallelOptions opt;
    opt.threads = 4;
    opt.executor = ExecutorRef(exec);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(1000, opt, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "seed " << plan.seed << " index " << i;
    }
    if (plan.drop_permille == 1000) {
      EXPECT_GT(exec.stats().submitted, 0u);
      EXPECT_EQ(exec.stats().dropped, exec.stats().submitted);
    }
  }
}

TEST(FaultInjection, ErrorRankingSurvivesInjectedDelays) {
  // The lowest-index work failure must win under adversarial scheduling
  // too, exactly as on the clean pool.
  ThreadPool pool(4);
  for (std::uint64_t seed : {31u, 32u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.delay_permille = 400;
    plan.delay_max_us = 100;
    FaultInjectingExecutor exec(pool, plan);
    ParallelOptions opt;
    opt.threads = 4;
    opt.executor = ExecutorRef(exec);
    try {
      parallel_for(256, opt, [](std::size_t i) {
        if (i % 17 == 3) {  // lowest failing index: 3
          throw std::runtime_error("fault at " + std::to_string(i));
        }
      });
      FAIL() << "expected the lowest-index failure, seed " << seed;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fault at 3") << "seed " << seed;
    }
  }
}

// --- allocation failures inside the intern path ---

TEST(InternAllocFailure, FailureUnwindsCleanlyAndRetrySucceeds) {
  // The name is interned outside the scope, so the failure lands in the
  // expression intern table rather than the SymId interner.
  const SymId probe = intern_symbol("alloc_fault_probe");
  sym::Expr e;
  const std::size_t before = live_nodes();
  EXPECT_TRUE(fails_at(1, [&] { e = sym::Expr::symbol(probe); }));
  // The failed intern left no node behind...
  EXPECT_EQ(live_nodes(), before);
  // ...and the table is fully functional afterwards.
  e = sym::Expr::symbol(probe) + sym::Expr(1);
  EXPECT_GT(live_nodes(), before);
  EXPECT_NE(e.str().find("alloc_fault_probe"), std::string::npos);
}

TEST(InternAllocFailure, EveryAllocationOfOneInternFailsCleanly) {
  // Fail the 1st, 2nd, ... allocation of one fresh intern in turn until it
  // succeeds.  The last allocation an intern makes is the shared_ptr control
  // block, after the node itself, so the sweep covers both teardown paths:
  // a node that never existed and a built node that was never published.
  const Rational value(982451653, 7919);  // interned nowhere else
  sym::Expr fresh;
  const std::size_t before = live_nodes();
  long long n = 1;
  for (; n < 64 && fails_at(n, [&] { fresh = sym::Expr(value); }); ++n) {
    EXPECT_EQ(live_nodes(), before) << "failed allocation " << n;
  }
  ASSERT_LT(n, 64) << "the intern never succeeded";
  EXPECT_GE(n, 3) << "expected the node and its control block to fail";
  EXPECT_EQ(live_nodes(), before + 1);
  EXPECT_EQ(&sym::Expr(value).node(), &fresh.node());
}

TEST(InternAllocFailure, FailuresUnderConcurrentInterningStayConsistent) {
  // Arm one failure per round while many threads intern distinct
  // expressions; whichever thread absorbs the bad_alloc must leave the shared
  // table intact.  The scope wraps only each lambda's intern expression.
  ThreadPool pool(4);
  ParallelOptions opt;
  opt.threads = 4;
  opt.executor = ExecutorRef(pool);
  std::atomic<int> failures{0};
  auto round = [&] {
    parallel_for(64, opt, [&](std::size_t i) {
      try {
        AllocFailureScope scope;
        sym::Expr e = sym::Expr::symbol("conc_fault_" +
                                        std::to_string(i % 16)) +
                      sym::Expr(static_cast<long long>(i));
      } catch (const std::bad_alloc&) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  };
  round();  // unarmed: interns the names and any pinned constants
  const std::size_t before = live_nodes();
  for (int r = 0; r < 8; ++r) {
    g_alloc_countdown.store(5, std::memory_order_relaxed);
    round();
    g_alloc_countdown.store(-1, std::memory_order_relaxed);
  }
  // Every round makes far more than five scoped allocations, and exactly one
  // thread observes the countdown reach zero.
  EXPECT_EQ(failures.load(), 8);
  // Every expression died with its round, failed or not, so the table is
  // back to its size before the rounds...
  EXPECT_EQ(live_nodes(), before);
  // ...and the interner still works.
  sym::Expr check = sym::Expr::symbol("conc_fault_0") * sym::Expr(2);
  EXPECT_NE(check.str().find("conc_fault_0"), std::string::npos);
}

}  // namespace
}  // namespace soap::support
