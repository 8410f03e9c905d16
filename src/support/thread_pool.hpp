// Fixed-size worker pool shared by every parallel stage of the analyzer —
// the canonical `Executor` implementation.
//
// The pool is deliberately minimal: a mutex/condvar task queue and N
// detachedly-long-lived workers.  All structured parallelism (sharding,
// result collection, exception propagation, nested-use safety) lives one
// layer up in support/parallel.hpp, which submits plain thunks here through
// the Executor interface.
//
// Thread-safety contract: `submit` may be called concurrently from any
// thread, including from inside a running task (nested submission never
// blocks — the task is queued and the call returns).  The destructor drains
// the queue: every task submitted before the destructor runs is executed
// before the workers are joined.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/executor.hpp"

namespace soap::support {

class ThreadPool final : public Executor {
 public:
  /// Spawns `threads` workers; 0 means hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);
  /// Drains the queue (all submitted tasks run) and joins the workers.
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker.  Never blocks on other
  /// tasks; safe to call from inside a task running on this same pool.
  void submit(std::function<void()> task) override;

  /// Executor contract: the pool can run `size()` tasks concurrently with
  /// the submitting thread.
  [[nodiscard]] std::size_t concurrency() const override {
    return workers_.size();
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Process-wide pool sized to hardware_threads().  Created on first use
  /// and intentionally leaked: analysis results held in static storage may
  /// be destroyed after any static pool would be, and idle workers parked
  /// on the queue condvar are harmless at process exit.
  static ThreadPool& global();

  /// std::thread::hardware_concurrency(), clamped to at least 1 (the
  /// standard allows it to report 0 when unknown).
  static std::size_t hardware_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace soap::support
