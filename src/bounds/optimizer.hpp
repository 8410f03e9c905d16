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
// dominant monomials of the access terms.  The *constant* c comes from the
// asymptotic geometric program (asymptotic_constant): with x_v =
// kappa_v X^{a_v}, it maximizes the one LP-degree-alpha objective monomial
// under the LP-degree-1 budget posynomial, a convex program whose KKT point
// is the global maximum.  Potentially active single terms are dropped and
// checked at the optimum (a feasible relaxation optimum is optimal).  The GP
// sees one LP point, so derive_chi takes its constant only when one
// objective monomial attains alpha and no negative offset monomial becomes
// leading elsewhere on the LP's optimal face.  Otherwise — or when the
// problem is outside the GP's form, or the GP misses its stated stop — c
// is fitted by one numeric solve (bounds/opt) at X = 1e12: log-space
// Nelder-Mead over the exact feasibility projection, seeded at the LP
// solution, then KKT polish.  c is then snapped to an exact value by
// rationalizing c^q (q = den(alpha)), which recovers radicals such as
// (1/27)^(1/2) = sqrt(3)/9 for matrix multiplication.
#pragma once

#include <cstdint>
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

namespace opt {
struct EvalGuard;
}  // namespace opt

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
  std::vector<double> tiles;  ///< tile sizes in OptimizationProblem::vars order
  double chi = 0.0;
};

/// Where derive_chi took the constant c from.
enum class ChiSource : std::uint8_t {
  kGp,         ///< the asymptotic GP over the whole problem
  kRelaxedGp,  ///< the GP without its potentially active single terms,
               ///< whose optimum satisfies every one of them
  kNumeric,    ///< the numeric fit: the GP declined or missed its stop
};

/// Symbolic form of chi(X) ~ coefficient * X^alpha (leading order).
struct ChiForm {
  Rational alpha;                      ///< exact, from the exponent LP
  sym::Expr coefficient;               ///< exact-ified constant c
  double coefficient_num = 0.0;        ///< c before the snap
  bool coefficient_exact = false;      ///< snap succeeded
  std::map<std::string, Rational> exponents;  ///< a_v: x_v ~ X^{a_v}
  /// kappa_v: x_v ~ kappa_v X^{a_v}.  Empty after a relaxed GP, whose
  /// optimum may be one point of a face of optima; pick_tiles fills it.
  std::map<std::string, double> tile_coeffs;
  ChiSource source = ChiSource::kNumeric;
  /// Backend result of the numeric fit (kSuccess when the GP supplied c).
  /// A solve that exhausts its iterations without meeting tolerance is
  /// recorded here as kNoConverge (the fit still uses the best point found
  /// — only a non-finite chi is a hard error).
  opt::ResultCode solve_code = opt::ResultCode::kSuccess;
};

/// The asymptotic GP's stated stop: it converges when its largest step
/// falls under 1e-15 within kGpMaxIterations and the log-spread of the
/// KKT ratios of the variables it moves is at most kGpKktTolerance.
inline constexpr int kGpMaxIterations = 8000;
inline constexpr double kGpKktTolerance = 1e-9;

/// One solve of the asymptotic GP for the constant c.
struct GpSolution {
  double constant = 0.0;      ///< c = F(kappa)
  std::vector<double> kappa;  ///< by position in OptimizationProblem::vars
  bool relaxed = false;       ///< potentially active single terms dropped
  bool converged = false;     ///< met the stated stop
  int iterations = 0;
  double kkt_spread = 0.0;    ///< log-spread of the KKT ratios at exit
};

/// Solves the asymptotic GP of `problem` at the LP exponents `exponents`
/// (by tile-variable position) and exponent `alpha`.  Returns std::nullopt
/// when the problem is outside the GP's form (several leading objective
/// monomials, a non-positive leading coefficient, `max()` dimensions, an
/// uncovered variable with a nonzero exponent) or when the relaxed optimum
/// violates a dropped single term.  Ticks `guard` once per iteration.
std::optional<GpSolution> asymptotic_constant(
    const OptimizationProblem& problem, const std::vector<Rational>& exponents,
    const Rational& alpha, opt::EvalGuard* guard = nullptr,
    int max_iterations = kGpMaxIterations);

/// Derives chi(X): the exponent from the exact LP, the constant from the
/// asymptotic GP, or — when the GP declines or misses its stop — from one
/// numeric solve through the selected backend.  Returns std::nullopt when
/// the problem is unbounded (some loop variable occurs in no access:
/// unlimited reuse, no bound).  Throws
/// AnalysisError{kDeadlineExceeded|kBudgetExceeded|kCancelled} when `stop`
/// trips mid-solve, and AnalysisError{kOptimizerNoConverge} when the numeric
/// fit produces no finite chi.
std::optional<ChiForm> derive_chi(
    const OptimizationProblem& problem, const support::StopCriteria& stop = {},
    opt::BackendKind backend = opt::BackendKind::kNelderMead);

/// Fills `chi.tile_coeffs` when derive_chi left them empty (a relaxed GP),
/// from one numeric solve at X = 1e12 through the default backend.  Only
/// tiling needs them (single_statement_bound); chi and rho do not.
void pick_tiles(const OptimizationProblem& problem, ChiForm& chi);

}  // namespace soap::bounds
