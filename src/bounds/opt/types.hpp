// Result codes and backend identifiers of the pluggable numeric-optimizer
// layer (bounds/opt, docs/OPTIMIZER.md).  Split from backend.hpp so option
// structs (sdg::SdgOptions, the service cache key) and ChiForm can name a
// backend or carry a result code without pulling in the problem types.
#pragma once

#include <cstdint>

namespace soap::bounds::opt {

/// nlopt-style classification of one numeric solve, replacing the
/// historical bool/throw mix.  Ordered by severity, least severe first.
enum class ResultCode : std::uint8_t {
  /// The search met its convergence tolerance and the optimum is a finite
  /// positive objective at a feasible point.
  kSuccess = 0,
  /// A StopCriteria criterion (deadline, cancellation, solver-eval budget)
  /// tripped mid-solve.  The backend returns instead of throwing — the
  /// stashed AnalysisError in SolveResult::stop_error carries the class —
  /// and derive_chi rethrows it to preserve the PR 8 degradation contract.
  kStopReached,
  /// Iteration caps exhausted before the convergence tolerance, or the
  /// search produced no finite positive objective.  The best point found is
  /// still returned (it may be essentially the seed); callers decide
  /// whether a non-converged optimum is usable.
  kNoConverge,
  /// No feasible point exists at this budget: even the all-lower-bound
  /// tile point violates a constraint.
  kInfeasible,
};

/// Stable machine-readable name ("success", "stop_reached", ...).
[[nodiscard]] const char* result_code_name(ResultCode code) noexcept;

/// The shipped backends, chosen only through sdg::SdgOptions::optimizer
/// (which the service cache key digests).  All backends agree on the
/// corpus — the `optimizer` differential suite
/// (tests/test_optimizer_diff.cpp) enforces it.
enum class BackendKind : std::uint8_t {
  /// Default: log-space Nelder-Mead with exact feasibility projection and
  /// KKT polish — the historical solver, bit-identical behind the
  /// interface.
  kNelderMead = 0,
  /// Multistart wrapper: re-seeds the default single-start pipeline from
  /// deterministically jittered copies of the LP seeds and keeps the best
  /// feasible optimum.
  kMultistart,
  /// Subplex-style coordinate descent (compass search with step halving,
  /// then KKT polish): an independent second opinion on the same projected
  /// objective.
  kSubplex,
};

/// Display name: "nelder_mead", "multistart", "subplex".
[[nodiscard]] const char* backend_name(BackendKind kind) noexcept;

}  // namespace soap::bounds::opt
