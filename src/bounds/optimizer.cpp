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

// Whether the GP at the LP point `a` has the constant of the whole optimal
// face {a' feasible : objective . a' = alpha}.  A tile family
// x = kappa' X^{a'} on the face, read at `a`, keeps its objective and spends
// no more of the GP's budget — unless a negative-coefficient monomial of the
// budget, lower order at `a`, is leading at a': then the family's budget is
// smaller than the GP at `a` can see (an O(1) tile below its offset count
// makes prod(e - c) change sign).
//
// Two steps clear such a monomial -c * mu.  First, on tiles >= 1 every
// monomial nu that mu divides is at least mu, so -c * mu is absorbed by
// lower-order positive monomials nu of the budget (their coefficients pay
// for it): the budget minus what was absorbed is a lower bound with the
// same leading part at `a`, so the GP at `a` still gives its constant.
// Second, what stays negative must not reach degree 1 anywhere on the face:
// one exact LP per monomial finds its largest degree there, as the optimum
// of objective . a' + delta * deg(a'); an optimum off the face is
// inconclusive and counts as a miss.
bool gp_covers_face(const OptimizationProblem& problem,
                    const std::vector<std::vector<Rational>>& constraint_rows,
                    const std::vector<Rational>& objective,
                    const Rational& alpha, const std::vector<Rational>& a) {
  const std::size_t n = a.size();
  auto degree_at = [](const MonomialDegrees& m, const std::vector<Rational>& x) {
    Rational out = 0;
    for (const auto& [i, d] : m) out += x[i] * Rational(d);
    return out;
  };
  auto divides = [](const MonomialDegrees& mu, const MonomialDegrees& nu) {
    for (const auto& [i, d] : mu) {
      auto it = nu.find(i);
      if (it == nu.end() || it->second < d) return false;
    }
    return true;
  };
  try {
    // The budget as one signed polynomial: like terms of all sum terms
    // combined.
    std::map<MonomialDegrees, Rational> budget;
    for (const AccessTerm& t : problem.sum_terms) {
      for (const auto& sm : t.signed_monomials()) budget[sm.degrees] += sm.coeff;
    }
    std::vector<MonomialDegrees> residual;
    for (auto& [mu, coeff] : budget) {
      if (!(coeff < Rational(0))) continue;
      if (degree_at(mu, a) == Rational(1)) return false;  // the GP declines
      Rational owed = -coeff;
      for (auto& [nu, paid] : budget) {
        if (!(owed > Rational(0))) break;
        if (!(paid > Rational(0)) || !divides(mu, nu) ||
            degree_at(nu, a) == Rational(1)) {
          continue;
        }
        const Rational take = paid < owed ? paid : owed;
        paid -= take;
        owed -= take;
      }
      if (owed > Rational(0)) residual.push_back(mu);
    }
    const Rational delta(1, 4096);
    for (const MonomialDegrees& mu : residual) {
      LinearProgram lp;
      lp.objective = objective;
      for (const auto& [i, d] : mu) lp.objective[i] += delta * Rational(d);
      lp.constraints = constraint_rows;
      lp.rhs.assign(constraint_rows.size(), Rational(1));
      const std::optional<LpSolution> sol = solve_lp(lp);
      if (!sol) return false;
      Rational value = 0;
      for (std::size_t i = 0; i < n; ++i) value += objective[i] * sol->x[i];
      if (value != alpha || degree_at(mu, sol->x) == Rational(1)) return false;
    }
  } catch (const OverflowError&) {
    return false;
  }
  return true;
}

/// One posynomial term coeff * prod_i exp(d_i * u_i) over log tile sizes u.
struct Mono {
  std::vector<std::pair<std::size_t, int>> degs;
  double coeff;
};

/// Sum of `monos` at u; `grad` (when non-null) receives d/du of the sum.
double eval_monos(const std::vector<Mono>& monos, const std::vector<double>& u,
                  std::vector<double>* grad) {
  double total = 0.0;
  if (grad) grad->assign(u.size(), 0.0);
  for (const Mono& m : monos) {
    double val = m.coeff;
    for (const auto& [i, d] : m.degs) val *= std::exp(d * u[i]);
    total += val;
    if (grad) {
      for (const auto& [i, d] : m.degs) (*grad)[i] += val * d;
    }
  }
  return total;
}

/// The numeric constant fit: one solve at a large budget, seeded at the LP
/// exponents (alpha is exact, so only c = chi(X) / X^alpha is numeric).
struct NumericFit {
  double constant = 0.0;
  std::vector<double> kappa;  ///< tile / X^{a_v}, by tile-variable position
  opt::ResultCode code = opt::ResultCode::kSuccess;
};

NumericFit numeric_fit(const OptimizationProblem& problem,
                       const std::vector<Rational>& exponents,
                       const Rational& alpha, opt::EvalGuard* guard,
                       opt::BackendKind backend) {
  const opt::OptimizerBackend& be = opt::backend(backend);
  const std::size_t n = problem.vars.size();
  const double X = 1e12;
  std::vector<double> seed(n);
  for (std::size_t i = 0; i < n; ++i) {
    seed[i] = exponents[i].to_double() * std::log(X);
  }
  const opt::SolveResult result =
      solve_through(be, problem, X, {std::move(seed)}, guard);
  const NumericOptimum& best = result.optimum;
  if (!std::isfinite(best.chi) || best.chi <= 0.0) {
    // The LP promised a bounded exponent but the numeric fit found no
    // finite positive chi: surface it as a structured failure instead of
    // letting NaNs flow into the symbolic bound.
    throw support::AnalysisError(
        support::StatusCode::kOptimizerNoConverge,
        "numeric optimizer produced no finite chi constant (backend=" +
            std::string(be.name()) +
            ", code=" + opt::result_code_name(result.code) + ")");
  }
  NumericFit fit;
  fit.code = result.code;
  fit.constant = best.chi / std::pow(X, alpha.to_double());
  fit.kappa.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    fit.kappa[i] = best.tiles[i] / std::pow(X, exponents[i].to_double());
  }
  return fit;
}

std::vector<Rational> exponents_by_position(const OptimizationProblem& problem,
                                            const ChiForm& chi) {
  std::vector<Rational> out;
  out.reserve(problem.vars.size());
  for (const std::string& v : problem.vars) out.push_back(chi.exponents.at(v));
  return out;
}

void set_tile_coeffs(const OptimizationProblem& problem,
                     const std::vector<double>& kappa, ChiForm* chi) {
  for (std::size_t i = 0; i < problem.vars.size(); ++i) {
    chi->tile_coeffs[problem.vars[i]] = kappa[i];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Asymptotic geometric program for the exact constant
// ---------------------------------------------------------------------------

// Substituting x_v = kappa_v * X^{a_v} with the exact LP exponents a_v turns
// the dominator budget into X * h(kappa) with h a posynomial over the
// LP-degree-1 constraint monomials, and the objective into X^alpha * F(kappa)
// over the LP-degree-alpha objective monomials.  max F s.t. h = 1 is solved
// to machine precision by multiplicative KKT equalization with analytic
// gradients.  A single term with an LP-degree-1 monomial (potentially
// active) is left out of h and checked at the optimum instead.  Backend
// independent: no numeric backend is consulted.
std::optional<GpSolution> asymptotic_constant(
    const OptimizationProblem& problem, const std::vector<Rational>& a,
    const Rational& alpha, opt::EvalGuard* guard, int max_iterations) {
  const std::size_t n = problem.vars.size();

  auto lp_degree = [&a](const MonomialDegrees& degrees) {
    Rational deg = 0;
    for (const auto& [i, d] : degrees) deg += a[i] * Rational(d);
    return deg;
  };
  // The LP-degree-1 monomials of `t`; false when one is not positive or
  // one exceeds LP degree 1.
  auto leading_posynomial = [&](const AccessTerm& t, std::vector<Mono>* out) {
    for (const auto& sm : t.signed_monomials()) {
      const Rational deg = lp_degree(sm.degrees);
      if (deg != Rational(1)) {
        if (deg > Rational(1)) return false;
        continue;
      }
      if (!sm.coeff.is_positive()) return false;
      out->push_back(
          {{sm.degrees.begin(), sm.degrees.end()}, sm.coeff.to_double()});
    }
    return true;
  };
  std::vector<Mono> constraint_monos;
  for (const AccessTerm& t : problem.sum_terms) {
    if (t.has_max_dims()) return std::nullopt;
    if (!leading_posynomial(t, &constraint_monos)) return std::nullopt;
  }
  if (constraint_monos.empty()) return std::nullopt;
  // Potentially active single terms: the relaxation drops them, and its
  // optimum stands only if it satisfies each of them.
  std::vector<std::vector<Mono>> dropped;
  for (const AccessTerm& t : problem.single_terms) {
    if (t.has_max_dims()) return std::nullopt;
    bool active = false;
    for (const auto& m : t.lp_monomials()) {
      Rational deg = 0;
      for (std::size_t i : m) deg += a[i];
      active = active || deg == Rational(1);
    }
    if (!active) continue;
    std::vector<Mono> posynomial;
    if (!leading_posynomial(t, &posynomial) || posynomial.empty()) {
      return std::nullopt;
    }
    dropped.push_back(std::move(posynomial));
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
  // Maximizing one monomial (linear in u) under the log-sum-exp budget is
  // a convex program; a sum of leading monomials is not.
  if (objective_monos.size() != 1) return std::nullopt;

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
  // A budget variable the objective monomial does not contain only spends
  // budget: a clamped one is pinned at its bound kappa = 1, and an unclamped
  // one has no optimum at these exponents (kappa -> 0).
  std::vector<bool> pinned(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (!relevant[i]) continue;
    bool in_objective = false;
    for (const auto& [j, _] : objective_monos.front().degs) {
      in_objective = in_objective || j == i;
    }
    if (in_objective) continue;
    if (!clamped[i]) return std::nullopt;
    pinned[i] = true;
  }
  auto project = [&](std::vector<double>* uu) {
    const double shift =
        opt::bisect_last_true(-80.0, 80.0, 200, [&](double mid) {
          std::vector<double> shifted = *uu;
          for (std::size_t i = 0; i < n; ++i) {
            if (pinned[i]) continue;
            shifted[i] += mid;
            if (clamped[i]) shifted[i] = std::max(0.0, shifted[i]);
          }
          return eval_monos(constraint_monos, shifted, nullptr) <= 1.0;
        });
    for (std::size_t i = 0; i < n; ++i) {
      if (pinned[i]) continue;
      (*uu)[i] += shift;
      if (clamped[i]) (*uu)[i] = std::max(0.0, (*uu)[i]);
    }
  };
  GpSolution out;
  out.relaxed = !dropped.empty();
  bool stopped = false;
  project(&u);
  while (out.iterations < max_iterations) {
    ++out.iterations;
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
    if (active == 0) {
      out.kkt_spread = 0.0;
      stopped = true;
      break;
    }
    mean_log /= active;
    // The log-spread of the ratios of every variable this step moves: 0
    // exactly at the KKT point.
    double lo = mean_log;
    double hi = mean_log;
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!relevant[i] || r[i] <= 0) continue;
      const double log_r = std::log(r[i]);
      const double delta = 0.4 * (log_r - mean_log);
      if (clamped[i] && u[i] <= 1e-15 && delta < 0) continue;
      lo = std::min(lo, log_r);
      hi = std::max(hi, log_r);
      u[i] += delta;
      if (clamped[i]) u[i] = std::max(0.0, u[i]);
      worst = std::max(worst, std::fabs(delta));
    }
    out.kkt_spread = hi - lo;
    project(&u);
    if (worst < 1e-15) {
      stopped = true;
      break;
    }
  }
  out.converged = stopped && out.kkt_spread <= kGpKktTolerance;
  for (const std::vector<Mono>& posynomial : dropped) {
    if (eval_monos(posynomial, u, nullptr) > 1.0) return std::nullopt;
  }
  out.constant = eval_monos(objective_monos, u, nullptr);
  out.kappa.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.kappa[i] = std::exp(u[i]);
  return out;
}

std::optional<ChiForm> derive_chi(const OptimizationProblem& problem,
                                  const support::StopCriteria& stop,
                                  opt::BackendKind backend) {
  opt::EvalGuard guard;
  guard.stop = stop.unlimited() ? nullptr : &stop;
  if (guard.stop != nullptr) stop.enforce("chi derivation");
  const std::size_t n = problem.vars.size();
  if (n == 0) return std::nullopt;
  opt::check_tile_indices(problem);

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
  std::vector<Rational> winner;      // the winning objective monomial's row
  std::size_t attaining = 0;         // objective monomials whose LP hits alpha
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
    if (alpha_exact == form.alpha) ++attaining;
    if (alpha_exact > form.alpha) {
      form.alpha = alpha_exact;
      exponents.assign(sol->x.begin(), sol->x.begin() + n);
      winner = std::vector<Rational>(lp.objective.begin(),
                                     lp.objective.begin() + n);
      attaining = 1;
    }
  }
  if (form.alpha < Rational(0)) return std::nullopt;
  for (std::size_t i = 0; i < n; ++i) {
    form.exponents[problem.vars[i]] = exponents[i];
  }

  // --- the constant: the asymptotic GP where the problem has its form and
  // it converges; the numeric fit otherwise ---
  double c_best = 0.0;
  double snap_tol = 1e-4;
  // The GP sees one objective monomial at one LP point: it stands for the
  // problem only when no other monomial attains alpha and the point has the
  // constant of the whole optimal face.
  std::optional<GpSolution> gp;
  if (attaining == 1) {
    gp = asymptotic_constant(problem, exponents, form.alpha, &guard);
  }
  if (gp && gp->converged &&
      gp_covers_face(problem, constraint_rows, winner, form.alpha,
                     exponents)) {
    form.source = gp->relaxed ? ChiSource::kRelaxedGp : ChiSource::kGp;
    c_best = gp->constant;
    snap_tol = 1e-8;
    // A relaxed optimum may be one point of a face of optima: its kappa is
    // not a tiling guideline, so pick_tiles chooses one when asked.
    if (!gp->relaxed) set_tile_coeffs(problem, gp->kappa, &form);
  } else {
    const NumericFit fit =
        numeric_fit(problem, exponents, form.alpha, &guard, backend);
    form.source = ChiSource::kNumeric;
    form.solve_code = fit.code;
    c_best = fit.constant;
    set_tile_coeffs(problem, fit.kappa, &form);
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

void pick_tiles(const OptimizationProblem& problem, ChiForm& chi) {
  if (!chi.tile_coeffs.empty()) return;
  opt::EvalGuard guard;
  const NumericFit fit =
      numeric_fit(problem, exponents_by_position(problem, chi), chi.alpha,
                  &guard, opt::BackendKind::kNelderMead);
  set_tile_coeffs(problem, fit.kappa, &chi);
}

}  // namespace soap::bounds
