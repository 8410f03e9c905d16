// Small shared test utilities.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace soap::testing {

/// Discards a [[nodiscard]] result.  Use inside EXPECT_THROW, where the
/// value of the throwing expression is irrelevant but silently ignoring it
/// trips -Wunused-result:  EXPECT_THROW(sink(q.eval(env)), std::out_of_range)
template <typename T>
void sink(T&& value) {
  [[maybe_unused]] auto discarded = std::forward<T>(value);
}

/// The tile point x with x[i] = tiles.at(vars[i]): lets a test name tile
/// sizes by variable while the bounds layer indexes them by position in
/// `vars` (OptimizationProblem::vars, StatementAnalysis::tile_vars).
inline std::vector<double> tile_point(
    const std::vector<std::string>& vars,
    const std::map<std::string, double>& tiles) {
  std::vector<double> x;
  x.reserve(vars.size());
  for (const std::string& v : vars) x.push_back(tiles.at(v));
  return x;
}

}  // namespace soap::testing
