#include "sdg/multi_statement.hpp"

#include <cmath>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "bounds/intensity.hpp"
#include "sdg/subgraph.hpp"
#include "support/parallel.hpp"
#include "support/sym_map.hpp"
#include "symbolic/leading.hpp"

namespace soap::sdg {

namespace {

constexpr double kReferenceS = 1 << 20;

SymId s_symbol() {
  static const SymId id = intern_symbol("S");
  return id;
}

const SymIdSet& s_only() {
  static const SymIdSet set = SymIdSet::from_unsorted({s_symbol()});
  return set;
}

// Evaluates `e` with every size symbol at `size_value` and S at `s_value`.
// The env is a per-thread template reused across calls (cleared, not
// reallocated) and the "S" id is interned once, so per-subgraph evaluation
// does no string interning and no steady-state allocation.
double eval_all(const sym::Expr& e, double size_value, double s_value) {
  thread_local SymMap<double> env;
  env.clear();
  for (SymId v : e.symbol_ids()) env.set(v, size_value);
  env.set(s_symbol(), s_value);
  return e.eval(env);
}

// Distinct subgraphs frequently derive the *same* intensity expression
// (hash-consing makes them the same node); cache the reference evaluation
// by expression identity.  Shared across workers: the value is a pure
// function of the expression, so whichever worker computes or reuses it the
// number is the same and the cache cannot introduce schedule dependence.
class RhoValueCache {
 public:
  double value(const sym::Expr& rho) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = values_.find(rho);
      if (it != values_.end()) return it->second;
    }
    double v = eval_all(rho, 1.0, kReferenceS);
    std::lock_guard<std::mutex> lock(mu_);
    return values_.try_emplace(rho, v).first->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<sym::Expr, double> values_;
};

struct Evaluated {
  std::vector<std::string> arrays;
  sym::Expr rho;
  double rho_value = 0.0;
};

// Enumeration-side stop polling.  Cancellation/deadline are checked every
// emit (cheap: a pointer test and, when a deadline is armed, a clock read);
// the node-budget gauge sweep piggybacks on every 16th emit.  The number of
// subgraphs is capped by SdgOptions::max_subgraphs, not here.
class EnumerationGuard {
 public:
  explicit EnumerationGuard(const support::StopCriteria& stop)
      : stop_(stop), limited_(!stop.unlimited()) {}

  void poll() {
    if (!limited_) return;
    ++emitted_;
    if ((emitted_ & 15u) == 0 || stop_.cancel.cancelled() ||
        stop_.deadline.expired()) {
      stop_.enforce("subgraph enumeration");
    }
  }

 private:
  const support::StopCriteria& stop_;
  const bool limited_;
  std::size_t emitted_ = 0;
};

// The historical analysis body, unchanged in what it computes; the public
// wrapper below adds the degrade-on-budget fallback around it.
std::optional<MultiStatementBound> derive_bound(const Program& program,
                                                const SdgOptions& options) {
  Sdg sdg = Sdg::build(program);

  // Enumerate first: the walk is cheap next to the analysis and capped by
  // max_subgraphs, so materializing it bounds memory and lets the
  // stop criteria trip before any subgraph is analyzed.
  std::vector<std::vector<std::string>> subgraphs;
  EnumerationGuard guard(options.stop);
  for_each_subgraph(sdg, options.max_subgraph_size, options.max_subgraphs,
                    [&](std::vector<std::string>&& arrays) {
                      guard.poll();
                      subgraphs.push_back(std::move(arrays));
                      return true;
                    });

  // The per-subgraph chain merge_subgraph -> derive_chi -> minimize_intensity
  // -> eval is independent per subgraph.  parallel_map decides only *who*
  // analyzes a subgraph: results land in per-index slots and are appended
  // in canonical enumeration order, so `evaluated` — and every reduction
  // below — is identical for any thread count and executor.
  RhoValueCache rho_cache;
  support::ParallelOptions par;
  par.threads = options.threads;
  par.executor = options.executor;
  par.cancel = options.stop.cancel;
  std::vector<std::optional<Evaluated>> slots =
      support::parallel_map<std::optional<Evaluated>>(
          subgraphs.size(), par,
          [&](std::size_t i) -> std::optional<Evaluated> {
            MergedSubgraph merged = merge_subgraph(sdg, subgraphs[i]);
            auto chi = bounds::derive_chi(merged.problem, options.stop,
                                          options.optimizer);
            // Unbounded intensity: no constraint from this subgraph.
            if (!chi) return std::nullopt;
            bounds::IntensityResult in = bounds::minimize_intensity(*chi);
            double value = rho_cache.value(in.rho);
            if (!std::isfinite(value) || value <= 0) return std::nullopt;
            return Evaluated{std::move(subgraphs[i]), in.rho, value};
          });
  std::vector<Evaluated> evaluated;
  for (std::optional<Evaluated>& slot : slots) {
    if (slot) evaluated.push_back(std::move(*slot));
  }

  MultiStatementBound out;
  out.subgraphs_evaluated = evaluated.size();

  // One pass over `evaluated` builds the array -> best-candidate index;
  // ties keep the earliest-enumerated subgraph, matching the order the
  // quadratic per-array scan used to visit them in.
  std::unordered_map<std::string, const Evaluated*> best_for;
  best_for.reserve(2 * evaluated.size());
  for (const Evaluated& e : evaluated) {
    for (const std::string& array : e.arrays) {
      auto [it, inserted] = best_for.try_emplace(array, &e);
      if (!inserted && e.rho_value > it->second->rho_value) it->second = &e;
    }
  }

  // Theorem 1 sum over computed arrays (batch-canonicalized at the end).
  sym::ExprVec q_sdg_terms;
  for (const std::string& array : sdg.computed_arrays()) {
    auto it = best_for.find(array);
    const Evaluated* best = it == best_for.end() ? nullptr : it->second;
    ArrayBound ab;
    ab.array = array;
    ab.cdag_size =
        sym::leading_term_except(program.array_cdag_size(array), s_only());
    if (best == nullptr) {
      // No finite-intensity subgraph covers this array: it contributes no
      // I/O in this accounting (unlimited reuse).
      ab.rho = sym::Expr(0);
      out.per_array.push_back(std::move(ab));
      continue;
    }
    ab.rho = best->rho;
    ab.rho_value = best->rho_value;
    ab.best_subgraph = best->arrays;
    q_sdg_terms.push_back(ab.cdag_size / best->rho);
    out.per_array.push_back(std::move(ab));
  }
  out.Q_sdg =
      sym::leading_term_except(sym::make_add(std::move(q_sdg_terms)), s_only());

  // Cold bound: touched inputs + terminal outputs, each at least once.
  sym::ExprVec q_cold_terms;
  for (const std::string& a : program.input_arrays()) {
    q_cold_terms.push_back(program.array_element_count(a));
  }
  for (const std::string& a : program.terminal_arrays()) {
    q_cold_terms.push_back(program.array_element_count(a));
  }
  out.Q_cold =
      sym::leading_term_except(sym::make_add(std::move(q_cold_terms)), s_only());

  // Final: the numerically larger of the two sound bounds at a reference
  // point (sizes >> S so the leading terms dominate).
  double sdg_val = eval_all(out.Q_sdg, 1e7, kReferenceS);
  double cold_val = eval_all(out.Q_cold, 1e7, kReferenceS);
  if (options.use_cold_bound && cold_val > sdg_val) {
    out.Q_leading = out.Q_cold;
  } else {
    out.Q_leading = out.Q_sdg;
  }
  return out;
}

}  // namespace

std::optional<MultiStatementBound> multi_statement_bound(
    const Program& program, const SdgOptions& options) {
  if (program.statements.empty()) return std::nullopt;
  try {
    return derive_bound(program, options);
  } catch (const support::AnalysisError& error) {
    const support::StatusCode code = error.code();
    const bool budget_trip =
        code == support::StatusCode::kDeadlineExceeded ||
        code == support::StatusCode::kBudgetExceeded;
    if (!budget_trip) throw;  // cancellation/invalid-input always surface
    // Graceful degradation: re-derive with the sound per-statement
    // accounting (singleton subgraphs — exactly PR 6's soundness baseline).
    // The fallback is bounded work (one solve per statement), so the
    // tripped deadline/budget is dropped; only cancellation stays live.
    // Kernels already configured per-statement degrade to the same
    // accounting run to completion — the bound is identical, just late.
    SdgOptions fallback = options;
    fallback.max_subgraph_size = 1;
    fallback.threads = 1;
    fallback.executor = support::ExecutorRef::serial();
    fallback.stop = support::StopCriteria{};
    fallback.stop.cancel = options.stop.cancel;
    std::optional<MultiStatementBound> out = derive_bound(program, fallback);
    if (out) {
      out->degraded = true;
      out->degraded_reason = code;
    }
    return out;
  }
}

}  // namespace soap::sdg
