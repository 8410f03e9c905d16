#include "bounds/opt/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace soap::bounds::opt {

void EvalGuard::tick() {
  ++ticks;
  if (stop == nullptr) return;
  const std::size_t cap = stop->budget.max_solver_evals;
  if (cap != 0 && ticks > cap) {
    throw support::AnalysisError(
        support::StatusCode::kBudgetExceeded,
        "solver evaluation budget exceeded (max=" + std::to_string(cap) + ")");
  }
  if ((ticks & 31u) == 0) stop->enforce("numeric optimizer");
}

void check_tile_indices(const OptimizationProblem& problem) {
  const std::size_t n = problem.vars.size();
  auto check = [n](std::size_t v) {
    if (v >= n) {
      throw std::out_of_range("OptimizationProblem: tile variable index " +
                              std::to_string(v) + " >= " + std::to_string(n));
    }
  };
  for (const auto* terms : {&problem.sum_terms, &problem.single_terms}) {
    for (const AccessTerm& t : *terms) {
      for (const DimSpec& d : t.dims) {
        for (std::size_t v : d.vars) check(v);
      }
    }
  }
  for (const ObjectiveMonomial& m : problem.objective) {
    for (const auto& [v, d] : m.degrees) check(v);
  }
}

double objective_value(const OptimizationProblem& problem,
                       const std::vector<double>& x) {
  if (problem.objective.empty()) {
    // effective_objective()'s default monomial, not rebuilt per evaluation.
    double f = 1.0;
    for (double v : x) f *= v;
    return f;
  }
  double f = 0.0;
  for (const ObjectiveMonomial& m : problem.objective) {
    double term = m.coeff.to_double();
    for (const auto& [i, d] : m.degrees) term *= std::pow(x[i], d);
    f += term;
  }
  return f;
}

double utilization(const OptimizationProblem& problem,
                   const std::vector<double>& x, double X) {
  double sum = 0.0;
  for (const AccessTerm& t : problem.sum_terms) sum += t.eval(x);
  double u = sum / X;
  for (const AccessTerm& t : problem.single_terms) {
    u = std::max(u, t.eval(x) / X);
  }
  return u;
}

double feasible_scale(const OptimizationProblem& problem,
                      const std::vector<double>& x, double X) {
  std::vector<double> tiles(x.size());
  auto feasible = [&](double m) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      tiles[i] = clamp_tile(m * x[i]);
    }
    return utilization(problem, tiles, X) <= 1.0;
  };
  if (!feasible(1e-12)) return 0.0;
  double lo = 1e-12, hi = 1.0;
  while (feasible(hi) && hi < 1e18) {
    lo = hi;
    hi *= 4.0;
  }
  return bisect_last_true(lo, hi, 200, feasible);
}

double projected_objective(const OptimizationProblem& problem,
                           const std::vector<double>& u, double X,
                           EvalGuard* guard, std::vector<double>* tiles_out) {
  if (guard != nullptr) guard->tick();
  std::vector<double> x(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) x[i] = std::exp(u[i]);
  double m = feasible_scale(problem, x, X);
  if (m == 0.0) return -1e300;
  std::vector<double> tiles(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double xi = clamp_tile(m * x[i]);
    tiles[i] = xi;
    if (tiles_out) (*tiles_out)[i] = xi;
  }
  return std::log(objective_value(problem, tiles));
}

std::vector<double> nelder_mead(const OptimizationProblem& problem, double X,
                                std::vector<double> start, int iters,
                                EvalGuard* guard, bool* converged) {
  const std::size_t n = start.size();
  if (converged != nullptr) *converged = false;
  auto f = [&](const std::vector<double>& u) {
    return projected_objective(problem, u, X, guard);
  };
  std::vector<std::vector<double>> simplex(n + 1, start);
  for (std::size_t i = 0; i < n; ++i) simplex[i + 1][i] += 0.7;
  std::vector<double> fv(n + 1);
  for (std::size_t i = 0; i <= n; ++i) fv[i] = f(simplex[i]);

  for (int it = 0; it < iters; ++it) {
    std::vector<std::size_t> idx(n + 1);
    for (std::size_t i = 0; i <= n; ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return fv[a] > fv[b]; });
    std::vector<std::vector<double>> sx(n + 1);
    std::vector<double> sf(n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      sx[i] = simplex[idx[i]];
      sf[i] = fv[idx[i]];
    }
    simplex = std::move(sx);
    fv = std::move(sf);
    if (std::fabs(fv[0] - fv[n]) < 1e-13 * (1.0 + std::fabs(fv[0]))) {
      if (converged != nullptr) *converged = true;
      break;
    }

    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) centroid[j] += simplex[i][j] / n;
    }
    auto combine = [&](double t) {
      std::vector<double> point(n);
      for (std::size_t j = 0; j < n; ++j) {
        point[j] = centroid[j] + t * (simplex[n][j] - centroid[j]);
      }
      return point;
    };
    std::vector<double> refl = combine(-1.0);
    double fr = f(refl);
    if (fr > fv[0]) {
      std::vector<double> expd = combine(-2.0);
      double fe = f(expd);
      if (fe > fr) {
        simplex[n] = expd;
        fv[n] = fe;
      } else {
        simplex[n] = refl;
        fv[n] = fr;
      }
    } else if (fr > fv[n - 1]) {
      simplex[n] = refl;
      fv[n] = fr;
    } else {
      std::vector<double> ctr = combine(0.5);
      double fc = f(ctr);
      if (fc > fv[n]) {
        simplex[n] = ctr;
        fv[n] = fc;
      } else {
        for (std::size_t i = 1; i <= n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            simplex[i][j] =
                simplex[0][j] + 0.5 * (simplex[i][j] - simplex[0][j]);
          }
          fv[i] = f(simplex[i]);
        }
      }
    }
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (fv[i] > fv[best]) best = i;
  }
  return simplex[best];
}

void kkt_polish(const OptimizationProblem& problem, double X,
                std::vector<double>* u, EvalGuard* guard) {
  const std::size_t n = u->size();
  auto tiles_of = [&](const std::vector<double>& uu) {
    std::vector<double> tiles(n);
    for (std::size_t i = 0; i < n; ++i) {
      tiles[i] = std::exp(std::max(0.0, uu[i]));
    }
    return tiles;
  };
  auto sum_g = [&](const std::vector<double>& uu) {
    auto tiles = tiles_of(uu);
    double s = 0.0;
    for (const AccessTerm& t : problem.sum_terms) s += t.eval(tiles);
    return s;
  };
  auto singles_ok = [&](const std::vector<double>& uu) {
    auto tiles = tiles_of(uu);
    for (const AccessTerm& t : problem.single_terms) {
      if (t.eval(tiles) > X * (1.0 + 1e-9)) return false;
    }
    return true;
  };
  auto project = [&](std::vector<double>* uu) {
    const double shift =
        bisect_last_true(-60.0, 60.0, 100, [&](double mid) {
          std::vector<double> shifted = *uu;
          for (double& v : shifted) v += mid;
          return sum_g(shifted) <= X;
        });
    for (double& v : *uu) v = std::max(0.0, v + shift);
  };

  std::vector<double> w = *u;
  project(&w);
  const double eps = 1e-6;
  for (int iter = 0; iter < 400; ++iter) {
    if (guard != nullptr) guard->tick();
    std::vector<double> r(n);
    double mean_log = 0.0;
    int active = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> up = w, dn = w;
      up[i] += eps;
      dn[i] -= eps;
      double dg = (sum_g(up) - sum_g(dn)) / (2 * eps);
      double df = (objective_value(problem, tiles_of(up)) -
                   objective_value(problem, tiles_of(dn))) /
                  (2 * eps);
      if (dg <= 0 || df <= 0) {
        r[i] = 0;
        continue;
      }
      r[i] = df / dg;
      if (w[i] > 1e-12) {
        mean_log += std::log(r[i]);
        ++active;
      }
    }
    if (active == 0) break;
    mean_log /= active;
    double step = iter < 100 ? 0.4 : 0.8;
    bool moved = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (r[i] <= 0) continue;
      double delta = step * (std::log(r[i]) - mean_log);
      if (w[i] <= 1e-12 && delta < 0) continue;
      w[i] = std::max(0.0, w[i] + delta);
      if (std::fabs(delta) > 1e-13) moved = true;
    }
    project(&w);
    if (!moved) break;
  }
  if (!singles_ok(w)) return;
  double before = projected_objective(problem, *u, X, guard);
  double after = projected_objective(problem, w, X, guard);
  if (after >= before - 1e-12) *u = w;
}

std::vector<std::vector<double>> default_seeds(std::size_t n, double X) {
  std::vector<std::vector<double>> seeds;
  seeds.emplace_back(n, std::log(X) / (2.0 * std::max<std::size_t>(n, 1)));
  {
    std::vector<double> staggered(n);
    for (std::size_t i = 0; i < n; ++i) {
      staggered[i] = std::log(X) * (0.15 + 0.1 * static_cast<double>(i % 3));
    }
    seeds.push_back(std::move(staggered));
  }
  return seeds;
}

SingleStart run_single_start(const OptimizationProblem& problem, double X,
                             std::vector<double> seed, int iters,
                             EvalGuard* guard) {
  SingleStart out;
  out.u =
      nelder_mead(problem, X, std::move(seed), iters, guard, &out.converged);
  kkt_polish(problem, X, &out.u, guard);
  out.objective = projected_objective(problem, out.u, X, guard);
  return out;
}

SolveResult finish_solve(const OptimizationProblem& problem, double X,
                         const std::vector<double>& best_u, bool converged,
                         EvalGuard* guard) {
  const std::size_t n = problem.vars.size();
  SolveResult out;
  std::vector<double> tiles(n);
  double logf = projected_objective(problem, best_u, X, guard, &tiles);
  if (logf <= -1e300) {
    // No feasible scaling from this point.  Distinguish a genuinely
    // infeasible problem (even the all-ones tile busts a budget) from a
    // search that wandered into numeric trouble.
    out.optimum.tiles.assign(n, 1.0);
    out.optimum.chi = 0.0;
    out.code = utilization(problem, out.optimum.tiles, X) > 1.0
                   ? ResultCode::kInfeasible
                   : ResultCode::kNoConverge;
    out.evaluations = guard != nullptr ? guard->ticks : 0;
    return out;
  }
  out.optimum.tiles = std::move(tiles);
  out.optimum.chi = std::exp(logf);
  const bool finite =
      std::isfinite(out.optimum.chi) && out.optimum.chi > 0.0;
  out.code = !finite ? ResultCode::kNoConverge
             : converged ? ResultCode::kSuccess
                         : ResultCode::kNoConverge;
  out.evaluations = guard != nullptr ? guard->ticks : 0;
  return out;
}

}  // namespace soap::bounds::opt
