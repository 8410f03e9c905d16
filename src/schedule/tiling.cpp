#include "schedule/tiling.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

namespace soap::schedule {

namespace {

/// Worst-case (maximal) extent of loop `depth`: upper - lower is affine in
/// the outer iteration variables, so its maximum over the outer iteration
/// box is attained at a vertex.  Enumerate the 2^depth vertices
/// outermost-first (an outer bound may itself depend on further-outer
/// variables, so each endpoint is evaluated under the choices made so
/// far).  The old probe pinned every outer variable at its lower bound,
/// which computes the *minimum* extent — a triangular loop
/// `for j in range(i)` degenerated to extent 1 and its tile clamped to 1
/// for every S.
long long max_extent(const std::vector<Loop>& loops,
                     const std::vector<SymId>& vars, std::size_t depth,
                     SymMap<Rational> env) {
  long long best = 1;
  std::function<void(std::size_t)> walk = [&](std::size_t d) {
    if (d == depth) {
      Rational lo = loops[depth].lower.eval(env);
      Rational hi = loops[depth].upper.eval(env);
      best = std::max(best, static_cast<long long>((hi - lo).floor()));
      return;
    }
    Rational lo = loops[d].lower.eval(env);
    Rational hi = loops[d].upper.eval(env);
    // Probe both endpoints of the outer variable's range (hi - 1 can fall
    // below lo for degenerate ranges; the extent below clamps at 1).
    for (const Rational& v : {lo, hi - Rational(1)}) {
      env.set(vars[d], v);
      walk(d + 1);
    }
    env.erase(vars[d]);
  };
  walk(0);
  return best;
}

}  // namespace

std::map<std::string, long long> concrete_tiles(
    const Statement& st, const bounds::IoLowerBound& bound, long long S,
    const std::map<std::string, long long>& params) {
  SymMap<Rational> env;
  for (const auto& [k, v] : params) env.set(k, Rational(v));
  const std::vector<Loop>& loops = st.domain.loops();
  std::vector<SymId> vars;
  for (const Loop& loop : loops) vars.push_back(intern_symbol(loop.var));
  std::map<std::string, long long> out;
  for (std::size_t d = 0; d < loops.size(); ++d) {
    const Loop& loop = loops[d];
    long long extent = max_extent(loops, vars, d, env);
    auto it = bound.tiles.find(loop.var);
    if (it == bound.tiles.end()) {
      out[loop.var] = extent;
      continue;
    }
    double tile = it->second.coefficient *
                  std::pow(static_cast<double>(S),
                           it->second.exponent.to_double());
    long long t = static_cast<long long>(std::llround(tile));
    out[loop.var] = std::clamp<long long>(t, 1, extent);
  }
  return out;
}

}  // namespace soap::schedule
