// The deterministic fault-injection harness (tests/support/fault_executor.*)
// and the arena allocation-failure hook: seeded fault decisions replay
// identically, parallel_for stays correct under delays/drops — including a
// plan that drops every helper — and an injected allocation failure inside
// the intern path unwinds cleanly.  Labeled `parallel` so the TSan CI job runs
// the whole suite under the race detector.
#include "fault_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "support/arena.hpp"
#include "support/parallel.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/expr.hpp"

namespace soap::support {
namespace {

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

// --- arena allocation-failure hook ---

TEST(ArenaFaultHook, InternFailureUnwindsCleanlyAndRetrySucceeds) {
  const std::size_t before = sym::expr_intern_stats().live_nodes;
  Arena::fail_after(1);
  EXPECT_THROW(sym::Expr::symbol("arena_fault_probe"), std::bad_alloc);
  Arena::clear_failure_hook();
  // The failed intern left no node behind...
  EXPECT_EQ(sym::expr_intern_stats().live_nodes, before);
  // ...and the table is fully functional afterwards.
  sym::Expr e = sym::Expr::symbol("arena_fault_probe") + sym::Expr(1);
  EXPECT_GT(sym::expr_intern_stats().live_nodes, before);
  EXPECT_NE(e.str().find("arena_fault_probe"), std::string::npos);
}

TEST(ArenaFaultHook, FailuresUnderConcurrentInterningStayConsistent) {
  // Arm a stream of failures while many threads intern distinct expressions;
  // whichever thread absorbs a bad_alloc must leave the shared table intact.
  ThreadPool pool(4);
  ParallelOptions opt;
  opt.threads = 4;
  opt.executor = ExecutorRef(pool);
  std::atomic<int> failures{0};
  for (int round = 0; round < 8; ++round) {
    Arena::fail_after(5);
    parallel_for(64, opt, [&](std::size_t i) {
      try {
        sym::Expr e = sym::Expr::symbol("conc_fault_" +
                                        std::to_string(i % 16)) +
                      sym::Expr(static_cast<long long>(i));
        (void)e;
      } catch (const std::bad_alloc&) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
    Arena::clear_failure_hook();
  }
  // The interner still works after every round of injected failures.
  sym::Expr check = sym::Expr::symbol("conc_fault_0") * sym::Expr(2);
  EXPECT_NE(check.str().find("conc_fault_0"), std::string::npos);
}

}  // namespace
}  // namespace soap::support
