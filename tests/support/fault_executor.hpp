// FaultInjectingExecutor: a seeded, deterministic fault decorator over any
// Executor, for stress-testing the structured-parallel layers.
//
// Every fault decision is a pure function of (seed, submission index), so a
// given plan replays identically run after run — the property the
// determinism suite relies on when it asserts bit-identical analysis output
// under an adversarial schedule.  Three fault modes, composable:
//
//   * delay    — the helper sleeps a seeded duration before running, which
//                shifts which indices the caller claims itself.
//   * drop     — the submitted thunk never runs (a lost or crashed helper;
//                internally the decorator raises and swallows a
//                FaultInjectedError so the "thrown task" path is exercised
//                without tearing down the inner pool's worker).  Progress
//                must not depend on any helper actually running — the
//                parallel_for contract — so dropped tasks must never hang
//                a run.
//   * reorder  — submissions are buffered and released to the inner
//                executor in a seeded shuffle, up to `reorder_window` held
//                at a time.
//
// The decorator honestly reports the inner executor's concurrency(), so the
// structured layers plan the same helper fan-out they would without faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "support/executor.hpp"

namespace soap::support {

/// The exception a dropped task raises (and the decorator swallows) inside
/// the inner executor's worker.  Public so tests can also throw it from
/// work functions to model faulty work items.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Fault probabilities are in permille (0..1000) of submissions, decided
/// deterministically per submission index.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::uint32_t delay_permille = 0;  ///< chance of an injected pre-task sleep
  std::uint32_t delay_max_us = 200;  ///< injected sleeps span [0, this]
  std::uint32_t drop_permille = 0;   ///< chance the task never runs
  std::uint32_t reorder_window = 0;  ///< >0: hold + shuffled release depth
};

class FaultInjectingExecutor final : public Executor {
 public:
  FaultInjectingExecutor(Executor& inner, const FaultPlan& plan)
      : inner_(inner), plan_(plan) {}
  /// Releases anything still held in the reorder buffer.
  ~FaultInjectingExecutor() override { flush(); }

  void submit(std::function<void()> task) override;
  [[nodiscard]] std::size_t concurrency() const override {
    return inner_.concurrency();
  }

  /// Forwards every held submission (seeded order) to the inner executor.
  /// Call before waiting on work that must eventually run.
  void flush();

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t delayed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t reordered = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// splitmix64 of (seed, index, salt): the per-decision random word.
  [[nodiscard]] std::uint64_t decision(std::uint64_t index,
                                       std::uint64_t salt) const;
  /// Wraps `task` with the delay/drop faults decided for `index`.
  [[nodiscard]] std::function<void()> decorate(std::function<void()> task,
                                               std::uint64_t index);

  Executor& inner_;
  const FaultPlan plan_;

  mutable std::mutex mu_;
  std::vector<std::function<void()>> held_;  ///< reorder buffer
  std::uint64_t index_ = 0;
  Stats stats_;
};

}  // namespace soap::support
