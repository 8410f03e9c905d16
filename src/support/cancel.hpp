// Termination and degradation primitives for the analysis stack.
//
// Every long-running layer (subgraph enumeration, the numeric optimizer,
// corpus/attainment sweeps, parallel_for) accepts a `StopCriteria`
// and polls it at chunk boundaries.  The criteria aggregate three
// independent stop signals:
//
//   * CancellationToken — external, thread-safe request to stop (a service
//     frontend dropping a request, a test tearing a parallel loop down).
//   * Deadline — a wall-clock budget on the whole derivation.
//   * ResourceBudget — caps on interned symbolic nodes (polled against the
//     sharded table's live count via a registered gauge) and numeric-solver
//     objective evaluations.  The enumeration cap is sdg::SdgOptions::
//     max_subgraphs, which bounds the work rather than failing it.
//
// A tripped criterion surfaces as a structured `AnalysisError` carrying a
// machine-readable `StatusCode`; each code maps to a distinct process exit
// code (status_exit_code) so callers of analyze_tool can distinguish
// deadline / budget / cancellation / bad input without parsing text.  The
// SDG layer catches deadline/budget errors and degrades to the sound
// per-statement bound instead of failing the kernel (docs/ROBUSTNESS.md).
//
// Default-constructed criteria are entirely unlimited and cost one branch
// per poll, so the hot no-limits path is unaffected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

namespace soap::support {

/// Structured result taxonomy, ordered by exit-code assignment.  kOk is the
/// absence of failure; everything else names why a derivation stopped.
enum class StatusCode {
  kOk = 0,                  ///< completed (possibly degraded)
  kInternalError = 1,       ///< unexpected exception escaping a layer
  kInvalidInput = 2,        ///< malformed DSL/flags (matches usage exit 2)
  kOptimizerNoConverge = 3, ///< numeric solve produced no finite intensity
  kDeadlineExceeded = 4,    ///< wall-clock deadline tripped
  kBudgetExceeded = 5,      ///< node/eval budget tripped
  kCancelled = 6,           ///< external cancellation requested
};

/// Stable machine-readable name ("deadline_exceeded", ...).
[[nodiscard]] const char* status_code_name(StatusCode code) noexcept;

/// Process exit code for the class: 0 ok, 1 internal, 2 invalid input,
/// 3 no-converge, 4 deadline, 5 budget, 6 cancelled.
[[nodiscard]] int status_exit_code(StatusCode code) noexcept;

/// The one exception type the termination layer throws.  Derives from
/// std::runtime_error so pre-existing catch sites keep working; carries the
/// StatusCode so new catch sites can route on it.
class AnalysisError : public std::runtime_error {
 public:
  AnalysisError(StatusCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  [[nodiscard]] StatusCode code() const noexcept { return code_; }

 private:
  StatusCode code_;
};

/// Copyable, thread-safe view of a cancellation flag.  Default-constructed
/// tokens are never cancelled (null flag, one pointer test per poll).
class CancellationToken {
 public:
  CancellationToken() = default;

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }
  /// True when this token is wired to a source (even if not yet tripped).
  [[nodiscard]] bool armed() const noexcept { return flag_ != nullptr; }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Owns a cancellation flag; hand out token() copies to the work being
/// guarded and call request_cancel() from any thread.  Tokens outlive the
/// source safely (shared ownership of the flag).
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() noexcept {
    flag_->store(true, std::memory_order_release);
  }
  [[nodiscard]] bool cancel_requested() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }
  [[nodiscard]] CancellationToken token() const {
    return CancellationToken(flag_);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Wall-clock deadline on steady_clock.  Default-constructed deadlines
/// never expire, and neither do budgets past the clock's range: they
/// saturate at time_point::max() instead of overflowing.
class Deadline {
 public:
  Deadline() = default;

  [[nodiscard]] static Deadline after(std::chrono::nanoseconds budget) {
    using Clock = std::chrono::steady_clock;
    Deadline d;
    d.armed_ = true;
    const Clock::time_point now = Clock::now();
    d.at_ = budget >= Clock::time_point::max() - now
                ? Clock::time_point::max()
                : now + budget;
    return d;
  }
  [[nodiscard]] static Deadline after_ms(std::size_t ms) {
    using std::chrono::nanoseconds;
    constexpr std::size_t kMaxMs = nanoseconds::max().count() / 1'000'000;
    return after(ms > kMaxMs ? nanoseconds::max()
                             : nanoseconds(std::chrono::milliseconds(ms)));
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] bool expired() const noexcept {
    return armed_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Resource caps; 0 = unlimited.  max_live_nodes is polled against the
/// registered live-node gauge (the sharded intern table's live count);
/// max_solver_evals is enforced by the numeric optimizer, which owns the
/// counter, and is deliberately per-derivation so that which evaluation
/// trips is deterministic.
struct ResourceBudget {
  std::size_t max_live_nodes = 0;
  std::size_t max_solver_evals = 0;

  [[nodiscard]] bool unlimited() const noexcept {
    return max_live_nodes == 0 && max_solver_evals == 0;
  }
};

/// Gauge wiring: the symbolic layer registers its live interned-node count
/// at static-init time (support cannot depend on symbolic).  Unregistered
/// gauge reads as 0, i.e. the node budget never trips.
using LiveNodeGauge = std::size_t (*)();
void register_live_node_gauge(LiveNodeGauge gauge) noexcept;
[[nodiscard]] std::size_t live_node_count() noexcept;

/// Aggregate stop signals, passed by value through the analysis layers.
/// check()/enforce() poll in severity order cancel > deadline > node
/// budget; the eval budget lives in the numeric optimizer's counter.
struct StopCriteria {
  CancellationToken cancel;
  Deadline deadline;
  ResourceBudget budget;

  [[nodiscard]] bool unlimited() const noexcept {
    return !cancel.armed() && !deadline.armed() && budget.unlimited();
  }

  /// Non-throwing poll: the highest-severity tripped criterion, or kOk.
  [[nodiscard]] StatusCode check() const noexcept {
    if (cancel.cancelled()) return StatusCode::kCancelled;
    if (deadline.expired()) return StatusCode::kDeadlineExceeded;
    if (budget.max_live_nodes != 0 &&
        live_node_count() > budget.max_live_nodes) {
      return StatusCode::kBudgetExceeded;
    }
    return StatusCode::kOk;
  }

  /// Throwing poll: raises AnalysisError naming the tripped criterion and
  /// `where` (the layer doing the polling) on any non-kOk check().
  void enforce(const char* where) const;
};

}  // namespace soap::support
