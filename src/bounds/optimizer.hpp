// Solver for the paper's optimization problem (8):
//
//     maximize  chi = prod_t |D_t|
//     subject to  sum_j |A_j(D)| <= X   (dominator-set budget)
//                 |A_out(D)| <= X       (minimum-set budget, per output)
//                 |D_t| >= 1
//
// yielding chi(X) = |H_max(X)| and, downstream, the computational intensity
// rho = chi(X)/(X - S).
//
// Strategy (see docs/OPTIMIZER.md): the *exponent* alpha of
// chi(X) = c * X^alpha is obtained exactly from a rational LP over the
// dominant monomials of the access terms.  The *constant* c is fitted by one
// numeric solve (bounds/opt) at X = 1e12: log-space Nelder-Mead over the
// exact feasibility projection, seeded at the LP solution, then KKT polish.
// The multistart and subplex backends optimize the same projection and
// serve the differential suite as oracles; that suite also checks that each
// backend's chi tracks the LP slope alpha between two budgets.  Every
// constraint term is evaluated by the O(n) AccessSizeFold (access_size.hpp).
// When the problem has pure-monomial structure, an asymptotic geometric
// program refines c to machine precision.  c is then snapped to an exact
// value by rationalizing c^q (q = den(alpha)), which recovers radicals such
// as (1/27)^(1/2) = sqrt(3)/9 for matrix multiplication.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bounds/access_size.hpp"
#include "bounds/opt/types.hpp"
#include "support/cancel.hpp"
#include "support/rational.hpp"
#include "symbolic/expr.hpp"

namespace soap::bounds {

/// One monomial of the objective: coeff * prod_v x_v^deg.
struct ObjectiveMonomial {
  MonomialDegrees degrees;
  Rational coeff = 1;
};

/// Every tile variable in the terms and the objective is a position in
/// `vars`; the numeric layer rejects a position past its end
/// (std::out_of_range) when the problem enters it.
struct OptimizationProblem {
  std::vector<std::string> vars;         ///< tile-size variables |D_t|
  std::vector<AccessTerm> sum_terms;     ///< sum over these <= X
  std::vector<AccessTerm> single_terms;  ///< each individually <= X
  /// Objective chi = sum of monomials.  Empty means the single-statement
  /// default prod of all vars.  Merged SDG subgraph statements (Section 6)
  /// produce one monomial per member statement: |H| sums the vertices each
  /// member computes inside the tile.
  std::vector<ObjectiveMonomial> objective;

  [[nodiscard]] std::vector<ObjectiveMonomial> effective_objective() const {
    if (!objective.empty()) return objective;
    ObjectiveMonomial all;
    for (std::size_t v = 0; v < vars.size(); ++v) all.degrees[v] = 1;
    return {all};
  }
};

/// Result of one numeric solve at a concrete X.
struct NumericOptimum {
  std::map<std::string, double> tiles;
  double chi = 0.0;
};

/// Symbolic form of chi(X) ~ coefficient * X^alpha (leading order).
struct ChiForm {
  Rational alpha;                      ///< exact, from the exponent LP
  sym::Expr coefficient;               ///< exact-ified constant c
  double coefficient_num = 0.0;        ///< numeric c (pre-snap)
  bool coefficient_exact = false;      ///< snap succeeded
  std::map<std::string, Rational> exponents;  ///< a_v: x_v ~ X^{a_v}
  std::map<std::string, double> tile_coeffs;  ///< kappa_v: x_v ~ kappa_v X^{a_v}
  /// Backend result of the constant-fit solve.  A solve that exhausts its
  /// iterations without meeting tolerance is recorded here as kNoConverge
  /// (the fit still uses the best point found — only a non-finite chi is a
  /// hard error).
  opt::ResultCode solve_code = opt::ResultCode::kSuccess;
};

/// Derives chi(X) using the selected numeric backend for the constant (the
/// exponent LP is exact and backend-independent).  Returns std::nullopt when
/// the problem is unbounded (some loop variable occurs in no access:
/// unlimited reuse, no bound).  Throws
/// AnalysisError{kDeadlineExceeded|kBudgetExceeded|kCancelled} when `stop`
/// trips mid-solve, and AnalysisError{kOptimizerNoConverge} when the numeric
/// fit produces no finite chi.  Default criteria are unlimited and keep the
/// inner loops on their historical path; the default backend is bit-identical
/// to the pre-interface solver.
std::optional<ChiForm> derive_chi(
    const OptimizationProblem& problem, const support::StopCriteria& stop = {},
    opt::BackendKind backend = opt::BackendKind::kNelderMead);

}  // namespace soap::bounds
