// The parallel-execution subsystem (support/thread_pool.*, support/
// parallel.*): coverage, determinism of index-slotted collection, the
// serial fallback, exception propagation, nested use on a starved pool,
// cooperative cancellation, and thread-count resolution.  Labeled
// `parallel` so the TSan CI job can select exactly the suites that exercise
// concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/cancel.hpp"
#include "support/executor.hpp"
#include "support/parallel.hpp"
#include "support/thread_pool.hpp"

namespace soap::support {
namespace {

ParallelOptions with_threads(std::size_t threads, std::size_t grain = 1,
                             Executor* executor = nullptr) {
  ParallelOptions opt;
  opt.threads = threads;
  opt.grain = grain;
  if (executor != nullptr) opt.executor = ExecutorRef(*executor);
  return opt;
}

TEST(ThreadPool, ZeroThreadsResolvesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ReportsItsSizeAsExecutorConcurrency) {
  ThreadPool pool(3);
  Executor& executor = pool;
  EXPECT_EQ(executor.concurrency(), 3u);
}

TEST(SerialExecutorTest, RunsSubmittedTasksInlineAndReportsZeroConcurrency) {
  SerialExecutor executor;
  EXPECT_EQ(executor.concurrency(), 0u);
  std::thread::id ran_on{};
  executor.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(SerialExecutorTest, ForcesParallelForOntoTheCallingThread) {
  // concurrency() == 0 means no helpers are ever submitted: even with a
  // large thread budget the loop runs inline on the caller.
  std::set<std::thread::id> ids;
  ParallelOptions opt;
  opt.threads = 8;
  opt.executor = ExecutorRef::serial();
  parallel_for(100, opt, [&](std::size_t) {
    ids.insert(std::this_thread::get_id());  // no lock: must be serial
  });
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ExecutorRefTest, DefaultResolvesToTheGlobalPool) {
  ExecutorRef ref;
  EXPECT_EQ(&ref.get(), &ThreadPool::global());
  EXPECT_GE(ref.concurrency(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int count = 0;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++count == kTasks) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return count == kTasks; }));
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { count.fetch_add(1); });
    }
  }  // join: every submitted task must have run
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, with_threads(8),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, GrainSizedChunksCoverEverything) {
  constexpr std::size_t kN = 1237;  // deliberately not a grain multiple
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, with_threads(4, /*grain=*/64),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SerialFallbackStaysOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  parallel_for(100, with_threads(1), [&](std::size_t) {
    ids.insert(std::this_thread::get_id());  // no lock: must be single-threaded
  });
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

TEST(ParallelFor, SingleChunkBypassesPool) {
  // n <= grain is one chunk: runs inline even with a large thread budget.
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> ids;
  parallel_for(50, with_threads(8, /*grain=*/64),
               [&](std::size_t) { ids.insert(std::this_thread::get_id()); });
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), caller);
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  bool called = false;
  parallel_for(0, with_threads(8), [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ThreadsZeroResolvesAndCompletes) {
  EXPECT_EQ(resolve_threads(0), ThreadPool::hardware_threads());
  EXPECT_EQ(resolve_threads(3), 3u);
  std::atomic<std::size_t> sum{0};
  parallel_for(1000, with_threads(0),
               [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(ParallelMap, IndexSlottedResultsAreDeterministic) {
  auto square = [](std::size_t i) { return i * i; };
  auto serial = parallel_map<std::size_t>(512, with_threads(1), square);
  for (std::size_t threads : {2u, 4u, 8u}) {
    auto parallel = parallel_map<std::size_t>(512, with_threads(threads),
                                              square);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ParallelMap, WorksWithNonDefaultConstructibleResults) {
  struct NoDefault {
    explicit NoDefault(std::size_t v) : value(v) {}
    std::size_t value;
  };
  auto out = parallel_map<NoDefault>(
      100, with_threads(4), [](std::size_t i) { return NoDefault(2 * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, 2 * i);
  }
}

TEST(ParallelFor, ExceptionPropagatesFromSerialPath) {
  EXPECT_THROW(parallel_for(10, with_threads(1),
                            [](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionPropagatesFromWorkers) {
  for (int round = 0; round < 10; ++round) {
    try {
      parallel_for(1000, with_threads(8), [](std::size_t i) {
        if (i == 637) throw std::runtime_error("worker failure");
      });
      FAIL() << "expected the worker exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker failure");
    }
  }
}

TEST(ParallelFor, LowestObservedFailureWins) {
  // Serial path: deterministic first failure.
  try {
    parallel_for(100, with_threads(1), [](std::size_t i) {
      if (i % 10 == 7) throw std::runtime_error("i=" + std::to_string(i));
    });
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "i=7");
  }
  // Parallel path: some failing index's exception must surface.
  try {
    parallel_for(100, with_threads(8), [](std::size_t i) {
      if (i % 10 == 7) throw std::runtime_error("i=" + std::to_string(i));
    });
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).substr(0, 2), "i=");
  }
}

TEST(ParallelFor, NestedOnStarvedPoolDoesNotDeadlock) {
  // A 1-worker pool cannot run outer helpers and inner helpers at once; the
  // caller-participates design must still finish (queued helpers wake up
  // late and no-op).  A deadlock shows up as the CTest timeout.
  ThreadPool pool(1);
  std::atomic<std::size_t> total{0};
  parallel_for(8, with_threads(4, 1, &pool), [&](std::size_t) {
    parallel_for(8, with_threads(4, 1, &pool),
                 [&](std::size_t j) { total.fetch_add(j); });
  });
  EXPECT_EQ(total.load(), 8u * (8u * 7u / 2));
}

TEST(ParallelFor, NestedSubmitFromWorkerTask) {
  // submit() from inside a running task must enqueue without blocking.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  int inner_ran = 0;
  pool.submit([&] {
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++inner_ran;
      cv.notify_all();
    });
  });
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return inner_ran == 1; }));
}

TEST(ParallelFor, NestedExceptionPropagatesThroughBothLevels) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(4, with_threads(2, 1, &pool),
                   [&](std::size_t) {
                     parallel_for(4, with_threads(2, 1, &pool),
                                  [](std::size_t j) {
                                    if (j == 2) {
                                      throw std::logic_error("inner");
                                    }
                                  });
                   }),
      std::logic_error);
}

TEST(ParallelFor, StressManyRoundsOnSharedGlobalPool) {
  // Churn the global pool from repeated loops; TSan chews on this one.
  std::size_t expected = 0;
  std::atomic<std::size_t> sum{0};
  for (std::size_t round = 0; round < 50; ++round) {
    parallel_for(200, with_threads(1 + round % 8),
                 [&](std::size_t i) { sum.fetch_add(i * round); });
    expected += (200u * 199u / 2) * round;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelFor, ConcurrentParallelForsFromManyThreads) {
  // Several caller threads using the global pool at once.
  std::vector<std::thread> callers;
  std::atomic<std::size_t> sum{0};
  callers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      parallel_for(500, with_threads(4),
                   [&](std::size_t i) { sum.fetch_add(i); });
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(sum.load(), 4u * (500u * 499u / 2));
}

TEST(ParallelFor, PreTrippedTokenCancelsSerialAndParallel) {
  for (std::size_t threads : {1u, 4u}) {
    CancellationSource source;
    source.request_cancel();
    ParallelOptions opt;
    opt.threads = threads;
    opt.cancel = source.token();
    std::atomic<std::size_t> ran{0};
    try {
      parallel_for(100, opt, [&](std::size_t) { ran.fetch_add(1); });
      FAIL() << "expected AnalysisError{kCancelled} with " << threads
             << " threads";
    } catch (const AnalysisError& e) {
      EXPECT_EQ(e.code(), StatusCode::kCancelled);
    }
    EXPECT_EQ(ran.load(), 0u) << threads << " threads";
  }
}

TEST(ParallelFor, CancelMidRunStopsClaimingChunks) {
  ThreadPool pool(4);
  CancellationSource source;
  ParallelOptions opt;
  opt.threads = 4;
  opt.executor = ExecutorRef(pool);
  opt.cancel = source.token();
  std::atomic<std::size_t> ran{0};
  try {
    parallel_for(100000, opt, [&](std::size_t) {
      if (ran.fetch_add(1) == 64) source.request_cancel();
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    });
    FAIL() << "expected AnalysisError{kCancelled}";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
  EXPECT_LT(ran.load(), 100000u);
}

}  // namespace
}  // namespace soap::support
