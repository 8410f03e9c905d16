// The injectable execution backend of the parallel subsystem.
//
// Every structured-parallel layer (parallel_for/parallel_map and what runs
// on it: the subgraph fan-out, the corpus and attainment sweeps, the sharded
// pebble-game validation) submits plain helper thunks through the
// `Executor` interface instead of talking to a concrete thread pool, so
// callers can swap the backend — the process-global pool, a private
// fixed-size pool, or the serial executor — without touching the algorithms.
//
// `concurrency()` is the contract that makes the serial bypass zero-overhead:
// it reports how many tasks the executor can run *concurrently with the
// submitting thread*.  Structured layers spawn at most that many helpers, so
// with SerialExecutor (concurrency 0) they never submit at all and fall back
// to the inline serial path — same results, no queues, no synchronization.
#pragma once

#include <cstddef>
#include <functional>

namespace soap::support {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Enqueues `task` for execution.  Must never block on other submitted
  /// tasks; safe to call from inside a running task on the same executor.
  virtual void submit(std::function<void()> task) = 0;

  /// How many tasks can run concurrently with the submitting thread: 0 for
  /// the serial executor, the worker count for a thread pool.  Structured
  /// layers use this to cap helper fan-out (and to skip submission — and all
  /// shared state — entirely when it is 0).
  [[nodiscard]] virtual std::size_t concurrency() const = 0;
};

/// Degenerate executor: `submit` runs the task inline on the calling thread.
/// `concurrency()` is 0, so the structured layers never actually submit to
/// it — injecting one forces every parallel loop onto the caller, which
/// is the deterministic reference schedule the parity tests compare against.
/// (Direct `submit` is only safe for tasks that do not wait on the
/// submitting thread.)
class SerialExecutor final : public Executor {
 public:
  void submit(std::function<void()> task) override;
  [[nodiscard]] std::size_t concurrency() const override { return 0; }
};

/// Non-owning, copyable handle to an executor.  Default-constructed it
/// resolves to the process-global thread pool on first use (so plumbed
/// options default to "shared pool" without eagerly creating it); use
/// `ExecutorRef::serial()` or bind a concrete executor to override.
class ExecutorRef {
 public:
  ExecutorRef() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a ref is the executor.
  ExecutorRef(Executor& executor) : executor_(&executor) {}

  /// A handle to a shared process-wide SerialExecutor.
  static ExecutorRef serial();

  /// The bound executor, resolving the default to ThreadPool::global().
  [[nodiscard]] Executor& get() const;

  [[nodiscard]] std::size_t concurrency() const { return get().concurrency(); }
  void submit(std::function<void()> task) const {
    get().submit(std::move(task));
  }

 private:
  Executor* executor_ = nullptr;  ///< nullptr = ThreadPool::global()
};

}  // namespace soap::support
