// Internal shared numerics of the bounds/opt backends: the problem's
// objective and constraint utilization at a tile point, the exact
// feasibility projection, and the local searches (log-space Nelder-Mead,
// KKT equalization polish) the shipped backends compose.  Everything here
// evaluates the OptimizationProblem directly: tile variables are already
// positions in `vars`, so a tile point is a std::vector<double> indexed the
// same way and the inner loops never touch a string.  Keeping it in one
// translation layer means the backends cannot drift apart numerically —
// the projection a backend optimizes over is by construction the
// projection the differential harness checks.
//
// This header is internal to soap::bounds; the public surface is
// bounds/opt/backend.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "bounds/opt/backend.hpp"
#include "bounds/optimizer.hpp"

namespace soap::bounds::opt {

// Throws std::out_of_range when a term dimension or an objective monomial
// names a tile variable at or past problem.vars.size().  Every backend's
// solve() and derive_chi check once on entry; the helpers below then index
// freely.
void check_tile_indices(const OptimizationProblem& problem);

// The objective chi at tile point x (the default prod of all tiles when
// problem.objective is empty).
double objective_value(const OptimizationProblem& problem,
                       const std::vector<double>& x);

// Worst constraint utilization g_k(x)/X (>1 means infeasible).
double utilization(const OptimizationProblem& problem,
                   const std::vector<double>& x, double X);

// The paper's |D_t| >= 1: the only bound a tile variable carries.  Written
// as a comparison, not std::max, so a NaN tile passes through unchanged.
inline double clamp_tile(double v) { return v < 1.0 ? 1.0 : v; }

// Bisection for the boundary of a predicate that is true on [lo, t] and
// false beyond: returns the last point known true (or `lo` itself, which is
// never evaluated).  Stops after `max_iters` halvings or as soon as the
// midpoint rounds onto an endpoint — the update still applies on that final
// step, so an all-true interval returns `hi` exactly — and from there on a
// fixed-count loop could not move either, so the result is bit-identical to
// running all `max_iters` iterations.
template <typename Pred>
double bisect_last_true(double lo, double hi, int max_iters, Pred&& pred) {
  for (int it = 0; it < max_iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    const bool stuck = mid == lo || mid == hi;
    (pred(mid) ? lo : hi) = mid;
    if (stuck) break;
  }
  return lo;
}

// Largest uniform multiplicative scale m such that scaling every tile by m
// (clamped at 1) stays feasible; constraint terms are monotone
// non-decreasing in every tile so feasibility is monotone in m.
double feasible_scale(const OptimizationProblem& problem,
                      const std::vector<double>& x, double X);

// Projected objective: log chi after scaling onto the feasible boundary.
// Returns -1e300 when no feasible scaling exists.  Ticks `guard` once per
// call (the unit StopCriteria's solver-eval budget counts).
double projected_objective(const OptimizationProblem& problem,
                           const std::vector<double>& u, double X,
                           EvalGuard* guard = nullptr,
                           std::vector<double>* tiles_out = nullptr);

// Nelder-Mead in log-space (maximization); dimensions are tiny (<= ~10).
// Sets *converged (when non-null) to whether the simplex met the spread
// tolerance within `iters` — the signal the default backend surfaces as
// kSuccess vs kNoConverge.
std::vector<double> nelder_mead(const OptimizationProblem& problem, double X,
                                std::vector<double> start, int iters,
                                EvalGuard* guard, bool* converged = nullptr);

// KKT polish on the sum-constraint boundary: at an interior optimum,
// r_v = (dF/du_v)/F / (dg/du_v) is equal across variables; iterate
// multiplicative equalization with projection back onto g = X.  Variables
// clamped at x >= 1 stay clamped.
void kkt_polish(const OptimizationProblem& problem, double X,
                std::vector<double>* u, EvalGuard* guard);

// The two historical default seeds every backend appends after the
// request's seeds: the uniform log(X)/(2n) point and a staggered ramp.
std::vector<std::vector<double>> default_seeds(std::size_t n, double X);

// One default-pipeline local search (Nelder-Mead then KKT polish) from
// `seed`; shared by the nelder_mead and multistart
// backends so multistart is exactly "the default, from more starts".
struct SingleStart {
  std::vector<double> u;
  double objective = -1e300;
  bool converged = false;
};
SingleStart run_single_start(const OptimizationProblem& problem, double X,
                             std::vector<double> seed, int iters,
                             EvalGuard* guard);

// Folds a backend's best point into a SolveResult: extracts tiles/chi via a
// final projected evaluation, probes feasibility of the all-ones point for
// the kInfeasible classification, and applies the
// kSuccess/kNoConverge rule (finite positive chi + converged search).
SolveResult finish_solve(const OptimizationProblem& problem, double X,
                         const std::vector<double>& best_u, bool converged,
                         EvalGuard* guard);

}  // namespace soap::bounds::opt
