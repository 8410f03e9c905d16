// Outside-in tracing for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into each
// module's public functions; nothing inside the analyzer is instrumented.
// A span has a name, start and end (steady clock), the span that caused it,
// and the kernel or request it belongs to.  Spans stay in memory and are
// written once, as Chrome trace-event JSON, when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "support/executor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;     ///< index of the causing span, -1 for a root
  std::string owner;   ///< kernel or request id
  int tid = 0;         ///< 0 = the replaying thread; >0 = executor workers
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span nested under the innermost open span of the replaying
  /// thread and returns its index.
  int begin(const std::string& name, const std::string& owner);
  void end(int index);

  /// Records a closed span from another thread (no nesting).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, const std::string& owner, int tid);

  /// Sum of durations of every span called `name`, in ms.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Durations (ms) of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Writes {"traceEvents":[...]} to `path`; returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, const std::string& owner)
        : t_(t), index_(t.begin(name, owner)) {}
    ~Scope() { t_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

 private:
  std::int64_t now_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards spans_ (record() runs on workers)
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< replaying thread's open-span stack
};

/// Counting wrapper at the public ExecutorRef seam: forwards every task to
/// `inner` and records, per task, the wait from submit to start and the
/// busy time, plus a peak of support::live_node_count() sampled at every
/// task boundary.  Results of work run through it are unchanged.
class CountingExecutor final : public soap::support::Executor {
 public:
  CountingExecutor(soap::support::Executor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void submit(std::function<void()> task) override;
  [[nodiscard]] std::size_t concurrency() const override {
    return inner_.concurrency();
  }

  [[nodiscard]] std::uint64_t tasks() const { return tasks_.load(); }
  [[nodiscard]] double wait_ms() const { return wait_ns_.load() / 1e6; }
  [[nodiscard]] double busy_ms() const { return busy_ns_.load() / 1e6; }
  [[nodiscard]] std::size_t live_nodes_peak() const { return peak_.load(); }

 private:
  void sample_live_nodes();

  soap::support::Executor& inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::int64_t> wait_ns_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<int> next_tid_{0};
};

}  // namespace perfbench
