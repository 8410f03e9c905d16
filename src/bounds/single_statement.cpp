#include "bounds/single_statement.hpp"

#include <utility>

#include "bounds/intensity.hpp"
#include "soap/projection.hpp"

namespace soap::bounds {

OptimizationProblem statement_problem(const Statement& st) {
  Statement split = split_disjoint_accesses(st);
  StatementAnalysis analysis = analyze_statement(split);
  OptimizationProblem problem;
  problem.vars = std::move(analysis.tile_vars);
  problem.sum_terms = std::move(analysis.input_terms);
  problem.single_terms = std::move(analysis.output_terms);
  return problem;
}

std::optional<IoLowerBound> single_statement_bound(const Statement& st) {
  const OptimizationProblem problem = statement_problem(st);
  std::optional<ChiForm> chi = derive_chi(problem);
  if (!chi) return std::nullopt;
  pick_tiles(problem, *chi);
  return assemble_bound(st.domain.cardinality().leading_terms().to_expr(),
                        *chi);
}

}  // namespace soap::bounds
