// The pluggable numeric-optimizer backend interface (docs/OPTIMIZER.md).
//
// A backend maximizes Problem (8)'s objective chi over the tile sizes at a
// concrete budget X.  The contract, modeled on nlopt-style optimizer layers:
// typed problem input (OptimizationProblem; every tile's only bound is the
// paper's |D_t| >= 1), StopCriteria integration (PR 8's
// deadlines/cancellation/solver-eval budgets are the
// maxtime/forced-stop/maxeval analogues, threaded through an EvalGuard
// shared across a derivation's solves), explicit ResultCodes
// instead of the historical bool/throw mix, and determinism: a backend is a
// pure function of (problem, request) — same inputs give bit-identical
// SolveResults on any thread, executor, or process (the stochastic
// multistart backend draws from a fixed stream).
//
// Three backends ship (see types.hpp); all must agree with the exact-LP
// exponent and with each other's snapped constant — the `optimizer`-labeled
// differential/fuzz suite enforces it corpus-wide the same way PR 6 made
// `Q_sim >= Q_lb` a standing invariant.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "bounds/opt/types.hpp"
#include "bounds/optimizer.hpp"
#include "support/cancel.hpp"

namespace soap::bounds::opt {

/// Counts projected-objective evaluations against StopCriteria's
/// solver-eval budget (the nlopt `maxeval` analogue) and polls
/// deadline/cancellation every 32 ticks so the poll cost stays invisible
/// next to the evaluation itself.  One guard per chi derivation — shared
/// by its GP iterations and its numeric fit so the budget is
/// per-derivation, and the evaluation that trips is deterministic.
struct EvalGuard {
  const support::StopCriteria* stop = nullptr;  ///< nullptr = unlimited
  std::uint64_t ticks = 0;

  void tick();  ///< throws AnalysisError when a criterion trips
};

/// One solve request at a concrete budget X.
struct SolveRequest {
  double X = 0.0;
  /// Extra log-space starting points (e.g. the LP-exponent seed).  Every
  /// backend appends its own default seeds after these.
  std::vector<std::vector<double>> seeds;
  /// Iteration cap per local search (0 = the backend's default).  The
  /// nlopt-maxeval-style knob for tests; production paths leave it 0.
  int max_iterations = 0;
  /// Stop integration: ticked on every projected-objective evaluation.
  /// Null = unlimited.
  EvalGuard* guard = nullptr;
};

/// Outcome of one solve.  `optimum` is always populated with the best point
/// found (on kInfeasible it is the all-ones tile point with chi = 0);
/// `code` says how much to trust it.
struct SolveResult {
  NumericOptimum optimum;
  ResultCode code = ResultCode::kNoConverge;
  /// Projected-objective evaluations this solve performed.
  std::uint64_t evaluations = 0;
  /// Set iff code == kStopReached: the AnalysisError the guard raised,
  /// stashed so the backend boundary stays exception-free; derive_chi
  /// rethrows it (preserving the PR 8 degradation contract).
  std::optional<support::AnalysisError> stop_error;
};

/// A numeric optimizer backend.  Implementations are stateless and
/// process-wide (the registry below hands out singletons); solve() must be
/// safe to call concurrently from any number of threads.  solve() throws
/// std::out_of_range, before searching, when a term or objective monomial
/// names a tile variable at or past problem.vars.size().
class OptimizerBackend {
 public:
  virtual ~OptimizerBackend() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual SolveResult solve(const OptimizationProblem& problem,
                                          const SolveRequest& request) const = 0;
};

/// The process-wide backend registry: singletons, one per BackendKind.
[[nodiscard]] const OptimizerBackend& backend(BackendKind kind);

}  // namespace soap::bounds::opt
