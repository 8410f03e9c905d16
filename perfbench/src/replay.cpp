#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "bounds/intensity.hpp"
#include "bounds/opt/backend.hpp"
#include "sdg/merge.hpp"
#include "sdg/subgraph.hpp"
#include "support/cancel.hpp"
#include "support/sym_map.hpp"
#include "symbolic/leading.hpp"

namespace perfbench {

namespace sym = soap::sym;
namespace bounds = soap::bounds;

namespace {

// The reference point multi_statement_bound evaluates rho at.
constexpr double kReferenceS = 1 << 20;

// `e` with every size symbol at `size` and S at the reference point.
double eval_at(const sym::Expr& e, double size) {
  soap::SymMap<double> env;
  for (soap::SymId v : e.symbol_ids()) env.set(v, size);
  env.set("S", kReferenceS);
  return e.eval(env);
}

struct Evaluated {
  const std::vector<std::string>* arrays;
  sym::Expr rho;
  double value;
};

// Theorem 1 over the evaluated subgraphs, as multi_statement_bound
// reduces them: per computed array the best rho (earliest on ties), the
// sum of |A|/rho, and the cold bound when the kernel asks for it.
sym::Expr reduce(const soap::Program& program, const soap::sdg::Sdg& sdg,
                 const std::vector<Evaluated>& evaluated, bool use_cold_bound) {
  const soap::SymIdSet s_only =
      soap::SymIdSet::from_unsorted({soap::intern_symbol("S")});
  std::map<std::string, const Evaluated*> best_for;
  for (const Evaluated& e : evaluated) {
    for (const std::string& array : *e.arrays) {
      auto [it, inserted] = best_for.try_emplace(array, &e);
      if (!inserted && e.value > it->second->value) it->second = &e;
    }
  }
  sym::ExprVec q_sdg_terms;
  for (const std::string& array : sdg.computed_arrays()) {
    auto it = best_for.find(array);
    if (it == best_for.end()) continue;
    q_sdg_terms.push_back(
        sym::leading_term_except(program.array_cdag_size(array), s_only) /
        it->second->rho);
  }
  const sym::Expr q_sdg =
      sym::leading_term_except(sym::make_add(std::move(q_sdg_terms)), s_only);
  sym::ExprVec q_cold_terms;
  for (const std::string& a : program.input_arrays()) {
    q_cold_terms.push_back(program.array_element_count(a));
  }
  for (const std::string& a : program.terminal_arrays()) {
    q_cold_terms.push_back(program.array_element_count(a));
  }
  const sym::Expr q_cold =
      sym::leading_term_except(sym::make_add(std::move(q_cold_terms)), s_only);
  if (use_cold_bound && eval_at(q_cold, 1e7) > eval_at(q_sdg, 1e7)) {
    return q_cold;
  }
  return q_sdg;
}

// The two solves derive_chi makes, seeded at the LP exponents.
void replay_solves(Tracer& tracer, const bounds::OptimizationProblem& problem,
                   const bounds::ChiForm& chi,
                   bounds::opt::BackendKind backend, const std::string& owner,
                   DerivationCounters& counters) {
  const bounds::opt::OptimizerBackend& be = bounds::opt::backend(backend);
  for (double X : {1e9, 1e12}) {
    bounds::opt::SolveRequest request;
    request.X = X;
    std::vector<double> seed;
    for (const std::string& v : problem.vars) {
      seed.push_back(chi.exponents.at(v).to_double() * std::log(X));
    }
    request.seeds = {std::move(seed)};
    // A budget that never trips makes the guard count every evaluation;
    // the solver's path is the same as under derive_chi's unlimited guard.
    soap::support::StopCriteria counting;
    counting.budget.max_solver_evals = std::numeric_limits<std::size_t>::max();
    bounds::opt::EvalGuard guard;
    guard.stop = &counting;
    request.guard = &guard;
    Tracer::Scope span(tracer, "bounds.opt.solve", owner);
    const bounds::opt::SolveResult result = be.solve(problem, request);
    counters.opt_evals += result.evaluations;
    ++counters.opt_solves;
    if (result.code == bounds::opt::ResultCode::kNoConverge) {
      ++counters.opt_no_converge;
    }
  }
}

}  // namespace

void sample_live_nodes(DerivationCounters& counters) {
  counters.live_nodes_peak =
      std::max(counters.live_nodes_peak, soap::support::live_node_count());
}

ReplayResult replay_derivation(Tracer& tracer, const soap::Program& program,
                               const soap::sdg::SdgOptions& options,
                               const std::string& owner,
                               DerivationCounters& counters) {
  ReplayResult out;
  soap::sdg::Sdg sdg = [&] {
    Tracer::Scope span(tracer, "sdg.build", owner);
    return soap::sdg::Sdg::build(program);
  }();
  std::vector<std::vector<std::string>> subsets;
  {
    Tracer::Scope span(tracer, "sdg.enumerate", owner);
    soap::sdg::for_each_subgraph(sdg, options.max_subgraph_size,
                                 options.max_subgraphs,
                                 [&subsets](std::vector<std::string>&& h) {
                                   subsets.push_back(std::move(h));
                                   return true;
                                 });
  }
  counters.subgraphs += subsets.size();
  std::unordered_set<sym::Expr> distinct;
  std::vector<Evaluated> evaluated;
  for (const std::vector<std::string>& h : subsets) {
    soap::sdg::MergedSubgraph merged = [&] {
      Tracer::Scope span(tracer, "sdg.merge", owner);
      return soap::sdg::merge_subgraph(sdg, h);
    }();
    std::optional<bounds::ChiForm> chi;
    {
      Tracer::Scope span(tracer, "bounds.chi", owner);
      chi = bounds::derive_chi(merged.problem, {}, options.optimizer);
    }
    ++counters.chi_calls;
    sample_live_nodes(counters);
    if (!chi) {
      ++counters.chi_unbounded;
      continue;
    }
    if (chi->coefficient_exact) ++counters.chi_exact;
    replay_solves(tracer, merged.problem, *chi, options.optimizer, owner,
                  counters);
    bounds::IntensityResult in = [&] {
      Tracer::Scope span(tracer, "bounds.intensity", owner);
      return bounds::minimize_intensity(*chi);
    }();
    double value = 0.0;
    {
      Tracer::Scope span(tracer, "sdg.rho_eval", owner);
      value = eval_at(in.rho, 1.0);
    }
    if (!std::isfinite(value) || value <= 0) continue;
    ++out.evaluated;
    distinct.insert(in.rho);
    out.rho_of.emplace(h, in.rho);
    evaluated.push_back({&h, in.rho, value});
  }
  {
    Tracer::Scope span(tracer, "sdg.reduce", owner);
    out.Q_leading = reduce(program, sdg, evaluated, options.use_cold_bound);
  }
  counters.evaluated += out.evaluated;
  counters.distinct_rho += distinct.size();
  return out;
}

std::string check_replay(const soap::sdg::MultiStatementBound& product,
                         const ReplayResult& replay) {
  if (product.subgraphs_evaluated != replay.evaluated) {
    return "subgraphs_evaluated " +
           std::to_string(product.subgraphs_evaluated) + " != replayed " +
           std::to_string(replay.evaluated);
  }
  for (const soap::sdg::ArrayBound& ab : product.per_array) {
    if (ab.best_subgraph.empty()) continue;
    auto it = replay.rho_of.find(ab.best_subgraph);
    if (it == replay.rho_of.end() || it->second != ab.rho) {
      return "rho of array " + ab.array + " differs";
    }
  }
  if (product.Q_leading != replay.Q_leading) {
    return "reduced bound " + replay.Q_leading.str() + " != " +
           product.Q_leading.str();
  }
  return "";
}

void add_derivation_layers(Report& report, const Tracer& tracer,
                           const DerivationCounters& counters) {
  const auto share = [](std::size_t part, std::size_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  report.metric("kernels.build_ms", tracer.total_ms("kernels.build"), "ms");
  report.metric("sdg.build_ms", tracer.total_ms("sdg.build"), "ms");
  report.metric("sdg.enumerate_ms", tracer.total_ms("sdg.enumerate"), "ms");
  report.metric("sdg.subgraphs", static_cast<double>(counters.subgraphs),
                "count");
  report.metric("sdg.merge_ms", tracer.total_ms("sdg.merge"), "ms");
  report.metric("sdg.reduce_ms", tracer.total_ms("sdg.reduce"), "ms");
  // Inclusive of the two solves derive_chi makes: they are nearly all of
  // its time, so its self time (this minus bounds.opt.solve_ms) is smaller
  // than the run-to-run noise of either.
  report.metric("bounds.chi_ms", tracer.total_ms("bounds.chi"), "ms");
  report.metric("bounds.chi_calls", static_cast<double>(counters.chi_calls),
                "count");
  report.metric("bounds.chi_unbounded_share",
                share(counters.chi_unbounded, counters.chi_calls), "ratio");
  report.metric("bounds.chi_exact_share",
                share(counters.chi_exact, counters.chi_calls), "ratio");
  report.metric("bounds.distinct_rho_share",
                share(counters.distinct_rho, counters.evaluated), "ratio");
  report.metric("bounds.intensity_ms", tracer.total_ms("bounds.intensity"),
                "ms");
  report.metric("bounds.opt.solve_ms", tracer.total_ms("bounds.opt.solve"),
                "ms");
  report.metric("bounds.opt.evals", static_cast<double>(counters.opt_evals),
                "count");
  report.metric("bounds.opt.no_converge",
                static_cast<double>(counters.opt_no_converge), "count");
  report.metric("symbolic.live_nodes_peak",
                static_cast<double>(counters.live_nodes_peak), "count");
}

}  // namespace perfbench
