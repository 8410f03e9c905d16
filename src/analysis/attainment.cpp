#include "analysis/attainment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "bounds/single_statement.hpp"
#include "cachesim/sim.hpp"
#include "schedule/tiling.hpp"
#include "sdg/multi_statement.hpp"
#include "support/parallel.hpp"

namespace soap::analysis {

namespace {

/// Parameter symbols of a program: everything a loop bound references that
/// is not an iteration variable of its own statement.
std::set<std::string> parameter_symbols(const Program& program) {
  std::set<std::string> out;
  for (const Statement& st : program.statements) {
    std::set<std::string> vars;
    for (const Loop& loop : st.domain.loops()) vars.insert(loop.var);
    for (const Loop& loop : st.domain.loops()) {
      for (const Affine* bound : {&loop.lower, &loop.upper}) {
        for (const std::string& v : bound->variables()) {
          if (!vars.count(v)) out.insert(v);
        }
      }
    }
  }
  return out;
}

/// Largest per-dimension extent e with e^depth <= budget, clamped to
/// [4, 32]: deep nests (conv: 7 loops) get tiny extents, shallow streaming
/// kernels get larger ones, and every kernel's trace stays simulable.
long long default_extent(std::size_t depth, std::size_t budget) {
  if (depth == 0) depth = 1;
  double e = std::pow(static_cast<double>(budget),
                      1.0 / static_cast<double>(depth));
  return std::clamp<long long>(static_cast<long long>(e), 4, 32);
}

/// default_params over an already-built `program` of `entry`.
std::map<std::string, long long> params_for(const Program& program,
                                            const kernels::KernelEntry& entry,
                                            const AttainmentOptions& options) {
  std::set<std::string> symbols = parameter_symbols(program);
  for (const std::string& s : entry.problem_sizes) symbols.insert(s);
  symbols.erase("S");
  std::size_t depth = 1;
  for (const Statement& st : program.statements) {
    depth = std::max(depth, st.domain.depth());
  }
  const long long extent = default_extent(depth, options.iteration_budget);
  std::map<std::string, long long> out;
  for (const std::string& s : symbols) {
    auto it = options.params.find(s);
    out[s] = it != options.params.end() ? it->second : extent;
  }
  return out;
}

}  // namespace

bool AttainmentRow::sound() const {
  return static_cast<double>(Q_sim_belady) + 1e-9 >= std::floor(Q_lb);
}

std::map<std::string, long long> default_params(
    const kernels::KernelEntry& entry, const AttainmentOptions& options) {
  return params_for(entry.build(), entry, options);
}

std::vector<AttainmentRow> measure_kernel(const kernels::KernelEntry& entry,
                                          const AttainmentOptions& options) {
  Program program = entry.build();
  AttainmentRow base;
  base.kernel = entry.name;
  base.family = entry.family;
  base.statements = program.statements.size();
  base.fused = base.statements > 1;
  base.params = params_for(program, entry, options);

  // The corpus bound: the kernel's recorded analysis (fused subgraphs, cold
  // bound, ... per its SdgOptions), derived once and evaluated at the
  // concrete sizes for every S.  Run serially: the caller already shards
  // kernels, and a bound is derived in milliseconds next to the trace
  // replays below.
  sdg::SdgOptions bound_options = entry.options;
  bound_options.threads = 1;
  bound_options.executor = support::ExecutorRef::serial();
  bound_options.stop = options.stop;
  auto bound = sdg::multi_statement_bound(program, bound_options);
  if (!bound) {
    throw std::runtime_error("attainment: no bound for " + entry.name);
  }
  base.degraded = bound->degraded;
  SymMap<double> env;
  for (const auto& [k, v] : base.params) env.set(k, static_cast<double>(v));

  // Per-statement tile bounds, S-independent: statements with unbounded
  // single-statement intensity (pure streaming passes) have none and
  // replay in natural order.
  std::vector<std::optional<bounds::IoLowerBound>> statement_bounds;
  for (const Statement& st : program.statements) {
    statement_bounds.push_back(bounds::single_statement_bound(st));
  }

  std::vector<AttainmentRow> rows;
  for (long long S : options.cache_sizes) {
    AttainmentRow row = base;
    row.S = S;
    env.set("S", static_cast<double>(S));
    row.Q_lb = bound->Q_leading.eval(env);
    // The simulated side: per statement, tile with the optimizer's X0
    // (Section 4.5) where a single-statement bound exists, and measure the
    // tiled trace under LRU and Belady.
    for (std::size_t i = 0; i < program.statements.size(); ++i) {
      const Statement& st = program.statements[i];
      std::map<std::string, long long> tiles;
      if (statement_bounds[i]) {
        tiles = schedule::concrete_tiles(st, *statement_bounds[i], S,
                                         row.params);
      }
      cachesim::Measurement m = cachesim::measure_statement(
          st, row.params, tiles, static_cast<std::size_t>(S));
      row.Q_sim_lru += m.lru.io();
      row.Q_sim_belady += m.belady.io();
      row.trace_length += m.trace_length;
      row.footprint += m.footprint;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<AttainmentRow> attainment_table(
    const std::vector<const kernels::KernelEntry*>& kernels,
    const AttainmentOptions& options) {
  support::ParallelOptions par;
  par.threads = options.threads;
  par.executor = options.executor;
  // One work item per kernel, each a pure function of (kernel, options)
  // collected into its own slot and concatenated in kernel order, so the
  // table is bit-identical for every thread count and executor.
  const std::vector<std::vector<AttainmentRow>> per_kernel =
      support::parallel_map<std::vector<AttainmentRow>>(
          kernels.size(), par, [&](std::size_t k) {
            return measure_kernel(*kernels[k], options);
          });
  std::vector<AttainmentRow> rows;
  for (const std::vector<AttainmentRow>& kernel_rows : per_kernel) {
    rows.insert(rows.end(), kernel_rows.begin(), kernel_rows.end());
  }
  return rows;
}

std::string format_attainment_table(const std::vector<AttainmentRow>& rows) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-16s %-22s %6s %12s %12s %12s %8s %10s %9s  %s\n", "family",
                "kernel", "S", "Q_lb", "Q_sim_lru", "Q_sim_bel", "ratio",
                "bound/sim", "trace", "sizes");
  out += line;
  out += std::string(140, '-') + "\n";
  for (const AttainmentRow& r : rows) {
    std::string sizes;
    for (const auto& [k, v] : r.params) {
      if (!sizes.empty()) sizes += ",";
      sizes += k + "=" + std::to_string(v);
    }
    std::snprintf(line, sizeof(line),
                  "%-16s %-22s %6lld %12.0f %12lld %12lld %8.2f %10s %9zu  %s%s\n",
                  r.family.c_str(), r.kernel.c_str(), r.S, r.Q_lb, r.Q_sim_lru,
                  r.Q_sim_belady, r.ratio(),
                  r.fused ? "fused/stmt" : "stmt/stmt", r.trace_length,
                  sizes.c_str(), r.sound() ? "" : "  [UNSOUND]");
    out += line;
    if (r.degraded) {
      out.insert(out.size() - 1, "  [degraded]");
    }
  }
  std::snprintf(line, sizeof(line),
                "%zu rows, %zu soundness violations (Q_sim_belady < Q_lb)\n",
                rows.size(), count_unsound(rows));
  out += line;
  return out;
}

std::size_t count_unsound(const std::vector<AttainmentRow>& rows) {
  std::size_t n = 0;
  for (const AttainmentRow& r : rows) {
    if (!r.sound()) ++n;
  }
  return n;
}

}  // namespace soap::analysis
