#include "bounds/opt/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace soap::bounds::opt {

void EvalGuard::tick() {
  if (stop == nullptr) return;
  ++ticks;
  const std::size_t cap = stop->budget.max_solver_evals;
  if (cap != 0 && ticks > cap) {
    throw support::AnalysisError(
        support::StatusCode::kBudgetExceeded,
        "solver evaluation budget exceeded (max=" + std::to_string(cap) + ")");
  }
  if ((ticks & 31u) == 0) stop->enforce("numeric optimizer");
}

double CompiledTerm::eval(const std::vector<double>& x) const {
  // Same counting rules as AccessTerm::eval, via the shared fold.
  AccessSizeFold fold;
  for (const CompiledDim& d : dims) {
    // Empty dimensions have extent 1; kMax starts from 0 and takes maxima.
    double extent = d.vars.empty()                ? 1.0
                    : d.mode == DimSpec::Mode::kMax ? 0.0
                                                    : 1.0;
    for (std::size_t v : d.vars) {
      extent = d.mode == DimSpec::Mode::kMax ? std::max(extent, x[v])
                                             : extent * x[v];
    }
    fold.add(extent, d.offsets);
  }
  return fold.value(kind);
}

Evaluator::Evaluator(const OptimizationProblem& p) : problem(p) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < p.vars.size(); ++i) index[p.vars[i]] = i;
  auto compile_term = [&index](const AccessTerm& t) {
    CompiledTerm out;
    out.kind = t.kind;
    out.dims.reserve(t.dims.size());
    for (const DimSpec& d : t.dims) {
      CompiledDim cd;
      cd.mode = d.mode;
      cd.offsets = static_cast<double>(d.offsets);
      cd.vars.reserve(d.vars.size());
      for (const std::string& v : d.vars) {
        auto it = index.find(v);
        if (it == index.end()) {
          throw std::out_of_range("AccessTerm::eval: unbound tile " + v);
        }
        cd.vars.push_back(it->second);
      }
      out.dims.push_back(std::move(cd));
    }
    return out;
  };
  for (const AccessTerm& t : p.sum_terms) {
    sum_terms.push_back(compile_term(t));
  }
  for (const AccessTerm& t : p.single_terms) {
    single_terms.push_back(compile_term(t));
  }
  for (const ObjectiveMonomial& m : p.effective_objective()) {
    std::vector<std::pair<std::size_t, int>> degs;
    degs.reserve(m.degrees.size());
    for (const auto& [v, d] : m.degrees) degs.emplace_back(index.at(v), d);
    objective.emplace_back(std::move(degs), m.coeff.to_double());
  }
}

double Evaluator::objective_value(const std::vector<double>& x) const {
  double f = 0.0;
  for (const auto& [degs, coeff] : objective) {
    double term = coeff;
    for (const auto& [i, d] : degs) term *= std::pow(x[i], d);
    f += term;
  }
  return f;
}

double Evaluator::utilization(const std::vector<double>& x, double X) const {
  double sum = 0.0;
  for (const CompiledTerm& t : sum_terms) sum += t.eval(x);
  double u = sum / X;
  for (const CompiledTerm& t : single_terms) {
    u = std::max(u, t.eval(x) / X);
  }
  return u;
}

double feasible_scale(const Evaluator& ev, const std::vector<double>& x,
                      double X) {
  std::vector<double> tiles(x.size());
  auto feasible = [&](double m) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      tiles[i] = clamp_tile(m * x[i]);
    }
    return ev.utilization(tiles, X) <= 1.0;
  };
  if (!feasible(1e-12)) return 0.0;
  double lo = 1e-12, hi = 1.0;
  while (feasible(hi) && hi < 1e18) {
    lo = hi;
    hi *= 4.0;
  }
  return bisect_last_true(lo, hi, 200, feasible);
}

double projected_objective(const Evaluator& ev, const std::vector<double>& u,
                           double X, EvalGuard* guard,
                           std::vector<double>* tiles_out) {
  if (guard != nullptr) guard->tick();
  std::vector<double> x(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) x[i] = std::exp(u[i]);
  double m = feasible_scale(ev, x, X);
  if (m == 0.0) return -1e300;
  std::vector<double> tiles(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double xi = clamp_tile(m * x[i]);
    tiles[i] = xi;
    if (tiles_out) (*tiles_out)[i] = xi;
  }
  return std::log(ev.objective_value(tiles));
}

std::vector<double> nelder_mead(const Evaluator& ev, double X,
                                std::vector<double> start, int iters,
                                EvalGuard* guard, bool* converged) {
  const std::size_t n = start.size();
  if (converged != nullptr) *converged = false;
  auto f = [&](const std::vector<double>& u) {
    return projected_objective(ev, u, X, guard);
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
      std::vector<double> p(n);
      for (std::size_t j = 0; j < n; ++j) {
        p[j] = centroid[j] + t * (simplex[n][j] - centroid[j]);
      }
      return p;
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

void kkt_polish(const Evaluator& ev, double X, std::vector<double>* u,
                EvalGuard* guard) {
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
    for (const CompiledTerm& t : ev.sum_terms) s += t.eval(tiles);
    return s;
  };
  auto singles_ok = [&](const std::vector<double>& uu) {
    auto tiles = tiles_of(uu);
    for (const CompiledTerm& t : ev.single_terms) {
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
      double df = (ev.objective_value(tiles_of(up)) -
                   ev.objective_value(tiles_of(dn))) /
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
  double before = projected_objective(ev, *u, X, guard);
  double after = projected_objective(ev, w, X, guard);
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

SingleStart run_single_start(const Evaluator& ev, double X,
                             std::vector<double> seed, int iters,
                             EvalGuard* guard) {
  SingleStart out;
  out.u = nelder_mead(ev, X, std::move(seed), iters, guard, &out.converged);
  kkt_polish(ev, X, &out.u, guard);
  out.objective = projected_objective(ev, out.u, X, guard);
  return out;
}

SolveResult finish_solve(const Evaluator& ev, const OptimizationProblem& p,
                         double X, const std::vector<double>& best_u,
                         bool converged, EvalGuard* guard) {
  const std::size_t n = p.vars.size();
  SolveResult out;
  std::vector<double> tiles(n);
  double logf = projected_objective(ev, best_u, X, guard, &tiles);
  if (logf <= -1e300) {
    // No feasible scaling from this point.  Distinguish a genuinely
    // infeasible problem (even the all-ones tile busts a budget) from a
    // search that wandered into numeric trouble.
    const std::vector<double> floor_tiles(n, 1.0);
    for (const std::string& v : p.vars) out.optimum.tiles[v] = 1.0;
    out.optimum.chi = 0.0;
    out.code = ev.utilization(floor_tiles, X) > 1.0 ? ResultCode::kInfeasible
                                                    : ResultCode::kNoConverge;
    out.evaluations = guard != nullptr ? guard->ticks : 0;
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) out.optimum.tiles[p.vars[i]] = tiles[i];
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
