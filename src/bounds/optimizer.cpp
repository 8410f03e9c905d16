#include "bounds/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "bounds/opt/backend.hpp"
#include "bounds/opt/evaluator.hpp"
#include "linalg/simplex.hpp"
#include "support/cancel.hpp"

namespace soap::bounds {

namespace {

// One solve at budget X through the selected backend.  The backend boundary
// is exception-free (a StopCriteria trip comes back as kStopReached with the
// AnalysisError stashed); this layer rethrows it so derive_chi keeps the
// PR 8 degradation contract — callers see the same AnalysisError at the same
// evaluation they always did.
opt::SolveResult solve_through(const opt::OptimizerBackend& be,
                               const OptimizationProblem& problem, double X,
                               std::vector<std::vector<double>> seeds,
                               opt::EvalGuard* guard) {
  opt::SolveRequest request;
  request.X = X;
  request.seeds = std::move(seeds);
  request.guard = guard;
  opt::SolveResult result = be.solve(problem, request);
  if (result.code == opt::ResultCode::kStopReached && result.stop_error) {
    throw *result.stop_error;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Exponent LP
// ---------------------------------------------------------------------------

std::vector<std::vector<std::size_t>> all_monomials(
    const OptimizationProblem& p) {
  std::vector<std::vector<std::size_t>> out;
  for (const AccessTerm& t : p.sum_terms) {
    auto ms = t.lp_monomials();
    out.insert(out.end(), ms.begin(), ms.end());
  }
  for (const AccessTerm& t : p.single_terms) {
    auto ms = t.lp_monomials();
    out.insert(out.end(), ms.begin(), ms.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Asymptotic geometric program for the exact constant
// ---------------------------------------------------------------------------

// Substituting x_v = kappa_v * X^{a_v} with the exact LP exponents a_v turns
// the dominator budget into X * h(kappa) with h a posynomial over the
// LP-degree-1 constraint monomials, and the objective into X^alpha * F(kappa)
// over the LP-degree-alpha objective monomials.  max F s.t. h = 1 is solved
// to machine precision by multiplicative KKT equalization with analytic
// gradients.  Returns nullopt when the structure is outside this form; the
// caller then keeps the generic numeric fit.  Backend-independent: whichever
// backend fit the constant, the GP refinement (and hence the snapped exact
// value) is the same — the differential harness leans on this.
std::optional<double> asymptotic_constant(const OptimizationProblem& problem,
                                          const std::vector<Rational>& a,
                                          const Rational& alpha,
                                          std::vector<double>* kappa_out,
                                          opt::EvalGuard* guard = nullptr) {
  const std::size_t n = problem.vars.size();

  struct Mono {
    std::vector<std::pair<std::size_t, int>> degs;
    double coeff;
  };
  auto lp_degree = [&a](const MonomialDegrees& degrees) {
    Rational deg = 0;
    for (const auto& [i, d] : degrees) deg += a[i] * Rational(d);
    return deg;
  };
  std::vector<Mono> constraint_monos;
  for (const AccessTerm& t : problem.sum_terms) {
    if (t.has_max_dims()) return std::nullopt;
    for (const auto& sm : t.signed_monomials()) {
      const Rational deg = lp_degree(sm.degrees);
      if (deg != Rational(1)) {
        if (deg > Rational(1)) return std::nullopt;
        continue;
      }
      if (!sm.coeff.is_positive()) return std::nullopt;
      constraint_monos.push_back(
          {{sm.degrees.begin(), sm.degrees.end()}, sm.coeff.to_double()});
    }
  }
  if (constraint_monos.empty()) return std::nullopt;
  for (const AccessTerm& t : problem.single_terms) {
    if (t.has_max_dims()) return std::nullopt;
    for (const auto& m : t.lp_monomials()) {
      Rational deg = 0;
      for (std::size_t i : m) deg += a[i];
      if (deg == Rational(1)) return std::nullopt;  // potentially active
    }
  }
  std::vector<Mono> objective_monos;
  for (const ObjectiveMonomial& om : problem.effective_objective()) {
    const Rational deg = lp_degree(om.degrees);
    if (deg > alpha) return std::nullopt;
    if (deg != alpha) continue;
    if (!om.coeff.is_positive()) return std::nullopt;
    objective_monos.push_back(
        {{om.degrees.begin(), om.degrees.end()}, om.coeff.to_double()});
  }
  if (objective_monos.empty()) return std::nullopt;

  // Variables appearing nowhere relevant must have zero exponent (their
  // kappa is clamped to 1; nonzero-exponent uncovered vars are a failure).
  std::vector<bool> relevant(n, false);
  for (const Mono& m : constraint_monos) {
    for (const auto& [i, _] : m.degs) relevant[i] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!relevant[i] && !a[i].is_zero()) return std::nullopt;
  }

  std::vector<double> u(n, 0.0);
  std::vector<bool> clamped(n);
  for (std::size_t i = 0; i < n; ++i) {
    clamped[i] = a[i].is_zero();
  }
  auto eval_monos = [&](const std::vector<Mono>& monos,
                        const std::vector<double>& uu,
                        std::vector<double>* grad) {
    double total = 0.0;
    if (grad) grad->assign(n, 0.0);
    for (const Mono& m : monos) {
      double val = m.coeff;
      for (const auto& [i, d] : m.degs) val *= std::exp(d * uu[i]);
      total += val;
      if (grad) {
        for (const auto& [i, d] : m.degs) (*grad)[i] += val * d;
      }
    }
    return total;
  };
  auto project = [&](std::vector<double>* uu) {
    const double shift =
        opt::bisect_last_true(-80.0, 80.0, 200, [&](double mid) {
          std::vector<double> shifted = *uu;
          for (std::size_t i = 0; i < n; ++i) {
            shifted[i] += mid;
            if (clamped[i]) shifted[i] = std::max(0.0, shifted[i]);
          }
          return eval_monos(constraint_monos, shifted, nullptr) <= 1.0;
        });
    for (std::size_t i = 0; i < n; ++i) {
      (*uu)[i] += shift;
      if (clamped[i]) (*uu)[i] = std::max(0.0, (*uu)[i]);
    }
  };
  project(&u);
  for (int iter = 0; iter < 8000; ++iter) {
    if (guard != nullptr) guard->tick();
    std::vector<double> gh, gf;
    eval_monos(constraint_monos, u, &gh);
    double f = eval_monos(objective_monos, u, &gf);
    double mean_log = 0.0;
    int active = 0;
    std::vector<double> r(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!relevant[i]) continue;
      if (gh[i] <= 0) continue;
      // r_i = (dF/du_i / F) / (dh/du_i); equal across free vars at optimum.
      r[i] = (gf[i] / std::max(1e-300, f)) / gh[i];
      if (r[i] <= 0) continue;
      if (clamped[i] && u[i] <= 1e-15) continue;
      mean_log += std::log(r[i]);
      ++active;
    }
    if (active == 0) break;
    mean_log /= active;
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!relevant[i] || r[i] <= 0) continue;
      double delta = 0.4 * (std::log(r[i]) - mean_log);
      if (clamped[i] && u[i] <= 1e-15 && delta < 0) continue;
      u[i] += delta;
      if (clamped[i]) u[i] = std::max(0.0, u[i]);
      worst = std::max(worst, std::fabs(delta));
    }
    project(&u);
    if (worst < 1e-15) break;
  }
  double c = eval_monos(objective_monos, u, nullptr);
  if (kappa_out) {
    kappa_out->resize(n);
    for (std::size_t i = 0; i < n; ++i) (*kappa_out)[i] = std::exp(u[i]);
  }
  return c;
}

}  // namespace

std::optional<ChiForm> derive_chi(const OptimizationProblem& problem,
                                  const support::StopCriteria& stop,
                                  opt::BackendKind backend) {
  opt::EvalGuard guard;
  guard.stop = stop.unlimited() ? nullptr : &stop;
  if (guard.stop != nullptr) stop.enforce("chi derivation");
  const std::size_t n = problem.vars.size();
  if (n == 0) return std::nullopt;
  opt::check_tile_indices(problem);
  const opt::OptimizerBackend& be = opt::backend(backend);

  // --- exact exponent LP ---
  auto monomials = all_monomials(problem);
  {
    std::vector<bool> covered(n, false);
    for (const auto& m : monomials) {
      for (std::size_t i : m) covered[i] = true;
    }
    for (bool c : covered) {
      if (!c) return std::nullopt;  // unbounded reuse
    }
  }
  std::vector<std::vector<Rational>> constraint_rows;
  for (const auto& m : monomials) {
    std::vector<Rational> row(n, Rational(0));
    for (std::size_t i : m) row[i] = Rational(1);
    constraint_rows.push_back(std::move(row));
  }
  // alpha = max over objective monomials of the LP value with that monomial
  // as the objective; keep the exponents of the winner.  Degenerate LPs have
  // a face of optima (e.g. a_i + a_j = 1 with only the joint constraint
  // binding); an epsilon penalty on the largest exponent steers the simplex
  // to the balanced optimum, which is the one the downstream geometric
  // program needs as an interior starting structure.  alpha itself is
  // recomputed exactly from the returned vertex, so the perturbation never
  // contaminates the exponent.
  ChiForm form;
  form.alpha = Rational(-1);
  std::vector<Rational> exponents;  // a_v by tile-variable position
  const Rational eps(1, 4096);
  for (const ObjectiveMonomial& om : problem.effective_objective()) {
    LinearProgram lp;
    // Variables: a_0..a_{n-1}, m (the max-exponent bound).
    lp.objective.assign(n + 1, Rational(0));
    for (const auto& [i, d] : om.degrees) lp.objective[i] = Rational(d);
    lp.objective[n] = -eps;
    for (const auto& row : constraint_rows) {
      std::vector<Rational> r = row;
      r.emplace_back(0);
      lp.constraints.push_back(std::move(r));
      lp.rhs.emplace_back(1);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Rational> r(n + 1, Rational(0));
      r[i] = 1;
      r[n] = -1;
      lp.constraints.push_back(std::move(r));
      lp.rhs.emplace_back(0);
    }
    auto sol = solve_lp(lp);
    if (!sol) return std::nullopt;
    Rational alpha_exact = 0;
    for (const auto& [i, d] : om.degrees) {
      alpha_exact += Rational(d) * sol->x[i];
    }
    // Guard against the epsilon perturbation trading real objective for
    // balance: re-solve without it and keep whichever attains more.
    {
      LinearProgram pure;
      pure.objective.assign(n, Rational(0));
      for (const auto& [i, d] : om.degrees) pure.objective[i] = Rational(d);
      pure.constraints = constraint_rows;
      pure.rhs.assign(constraint_rows.size(), Rational(1));
      auto pure_sol = solve_lp(pure);
      if (!pure_sol) return std::nullopt;
      if (pure_sol->objective_value > alpha_exact) {
        alpha_exact = pure_sol->objective_value;
        sol->x = pure_sol->x;
        sol->x.resize(n + 1);
      }
    }
    if (alpha_exact > form.alpha) {
      form.alpha = alpha_exact;
      exponents.assign(sol->x.begin(), sol->x.begin() + n);
    }
  }
  if (form.alpha < Rational(0)) return std::nullopt;
  for (std::size_t i = 0; i < n; ++i) {
    form.exponents[problem.vars[i]] = exponents[i];
  }

  // --- numeric constant fit: one solve at a large budget, seeded at the LP
  // exponents (alpha is exact, so only c = chi(X) / X^alpha is numeric) ---
  const double X = 1e12;
  std::vector<double> seed(n);
  for (std::size_t i = 0; i < n; ++i) {
    seed[i] = exponents[i].to_double() * std::log(X);
  }
  const opt::SolveResult result =
      solve_through(be, problem, X, {std::move(seed)}, &guard);
  form.solve_code = result.code;
  const NumericOptimum& best = result.optimum;
  if (!std::isfinite(best.chi) || best.chi <= 0.0) {
    // The LP promised a bounded exponent but the numeric fit found no
    // finite positive chi: surface it as a structured failure instead of
    // letting NaNs flow into the symbolic bound.
    throw support::AnalysisError(
        support::StatusCode::kOptimizerNoConverge,
        "numeric optimizer produced no finite chi constant (backend=" +
            std::string(be.name()) +
            ", code=" + opt::result_code_name(form.solve_code) + ")");
  }
  const double c_num = best.chi / std::pow(X, form.alpha.to_double());
  for (std::size_t i = 0; i < n; ++i) {
    form.tile_coeffs[problem.vars[i]] =
        best.tiles[i] / std::pow(X, exponents[i].to_double());
  }

  // --- asymptotic GP refinement: machine-precision constant when the
  // problem has the pure-monomial structure ---
  double c_best = c_num;
  double snap_tol = 1e-4;
  std::vector<double> kappa;
  std::optional<double> c_gp =
      asymptotic_constant(problem, exponents, form.alpha, &kappa, &guard);
  if (c_gp && std::fabs(*c_gp - c_num) <= 1e-2 * std::max(*c_gp, c_num)) {
    c_best = *c_gp;
    snap_tol = 1e-8;
    for (std::size_t i = 0; i < n; ++i) {
      form.tile_coeffs[problem.vars[i]] = kappa[i];
    }
  } else if (c_gp) {
    // Disagreement: keep the larger (a larger chi only loosens the bound,
    // staying sound) and leave the constant numeric.
    c_best = std::max(*c_gp, c_num);
  }
  form.coefficient_num = c_best;

  // --- snap to an exact value: rationalize c^q with the smallest-denominator
  // convergent so a noisy fit cannot masquerade as an exotic rational ---
  long long q = static_cast<long long>(form.alpha.den());
  double cq = std::pow(c_best, static_cast<double>(q));
  Rational snapped;
  if (rationalize_within(cq, snap_tol, 1000000, &snapped) &&
      snapped.is_positive()) {
    form.coefficient = sym::pow(sym::Expr(snapped), Rational(1, q));
    form.coefficient_exact = true;
  } else {
    form.coefficient = sym::Expr(rationalize(c_best, 1000000));
    form.coefficient_exact = false;
  }
  return form;
}

}  // namespace soap::bounds
