#include "bounds/optimizer.hpp"
#include <cmath>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "bounds/opt/backend.hpp"
#include "bounds/opt/evaluator.hpp"
#include "bounds/opt/types.hpp"
#include "bounds/single_statement.hpp"
#include "frontend/lower.hpp"
#include "support/cancel.hpp"
#include "test_util.hpp"

namespace soap::bounds {
namespace {

using testing::tile_point;

OptimizationProblem problem_of(const std::string& source) {
  Program p = frontend::parse_program(source);
  return statement_problem(p.statements[0]);
}

TEST(DeriveChi, GemmClosedForm) {
  auto chi = derive_chi(problem_of(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(3, 2));
  // c = (1/3)^{3/2} = sqrt(3)/9.
  EXPECT_TRUE(chi->coefficient_exact);
  EXPECT_NEAR(chi->coefficient_num, std::pow(1.0 / 3.0, 1.5), 1e-9);
  // Balanced exponents.
  EXPECT_EQ(chi->exponents.at("i"), Rational(1, 2));
  EXPECT_EQ(chi->exponents.at("j"), Rational(1, 2));
  EXPECT_EQ(chi->exponents.at("k"), Rational(1, 2));
}

TEST(DeriveChi, Jacobi1dShiftedQuadratic) {
  auto chi = derive_chi(problem_of(R"(
for t in range(T):
  for i in range(1, N - 1):
    A[i,t+1] = A[i-1,t] + A[i,t] + A[i+1,t]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(2));
  EXPECT_TRUE(chi->coefficient_exact);
  EXPECT_NEAR(chi->coefficient_num, 0.125, 1e-9);  // chi = (X+2)^2 / 8
}

TEST(DeriveChi, Heat3dFourThirds) {
  auto chi = derive_chi(problem_of(R"(
for t in range(T):
  for i in range(1, N-1):
    for j in range(1, N-1):
      for k in range(1, N-1):
        A[i,j,k,t+1] = A[i,j,k,t] + A[i-1,j,k,t] + A[i+1,j,k,t] + A[i,j-1,k,t] + A[i,j+1,k,t] + A[i,j,k-1,t] + A[i,j,k+1,t]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(4, 3));
  EXPECT_TRUE(chi->coefficient_exact);
  // chi = (X/4)^{4/3}/2.
  EXPECT_NEAR(chi->coefficient_num, std::pow(0.25, 4.0 / 3.0) / 2.0, 1e-7);
  // Optimal time tile is half the spatial tile.
  EXPECT_NEAR(chi->tile_coeffs.at("t") / chi->tile_coeffs.at("i"), 0.5, 1e-6);
}

TEST(DeriveChi, UnboundedReuseReturnsNullopt) {
  // Variable r appears in no access: chi is unbounded.
  auto chi = derive_chi(problem_of(R"(
for i in range(N):
  for r in range(R):
    y[i] = x[i]
)"));
  EXPECT_FALSE(chi);
}

TEST(DeriveChi, StreamingAlphaOne) {
  auto chi = derive_chi(problem_of(R"(
for i in range(N):
  y[i] = x[i]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(1));
  EXPECT_NEAR(chi->coefficient_num, 1.0, 1e-6);
}

TEST(DeriveChi, SumObjectiveDoublesConstant) {
  // Two statements sharing the same loads: chi = 2xy with xy <= X.
  OptimizationProblem p;
  p.vars = {"i", "j"};
  AccessTerm shared;
  shared.array = "A";
  shared.kind = TermKind::kPlain;
  shared.dims = {{DimSpec::Mode::kProduct, {0}, 0},
                 {DimSpec::Mode::kProduct, {1}, 0}};
  p.sum_terms = {shared};
  ObjectiveMonomial m;
  m.degrees = {{0, 1}, {1, 1}};
  m.coeff = 2;
  p.objective = {m};
  auto chi = derive_chi(p);
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(1));
  EXPECT_NEAR(chi->coefficient_num, 2.0, 1e-6);
}

// One solve of Problem (8) at budget X through the default backend.
NumericOptimum solve_default(const OptimizationProblem& p, double X) {
  opt::SolveRequest request;
  request.X = X;
  return opt::backend(opt::BackendKind::kNelderMead).solve(p, request).optimum;
}

TEST(MaximizeSubcomputation, RespectsBudget) {
  OptimizationProblem p = problem_of(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  double X = 3e4;
  NumericOptimum opt = solve_default(p, X);
  double used = 0;
  for (const AccessTerm& t : p.sum_terms) used += t.eval(opt.tiles);
  EXPECT_LE(used, X * (1.0 + 1e-6));
  // chi(X) = (X/3)^{3/2} for gemm.
  EXPECT_NEAR(opt.chi, std::pow(X / 3.0, 1.5), 0.01 * std::pow(X / 3.0, 1.5));
}

TEST(MaximizeSubcomputation, MinimumSetConstraintBinds) {
  // Outer product C[i,j] = A[i]*B[j]: the output tile x_i x_j <= X binds.
  OptimizationProblem p = problem_of(R"(
for i in range(N):
  for j in range(N):
    C[i,j] = A[i] * B[j]
)");
  ASSERT_EQ(p.single_terms.size(), 1u);
  double X = 1e4;
  NumericOptimum opt = solve_default(p, X);
  EXPECT_LE(p.single_terms[0].eval(opt.tiles),
            X * (1.0 + 1e-6));
  EXPECT_NEAR(opt.chi, X, 0.02 * X);  // chi ~ X (output-bound)
}

class ChiMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(ChiMonotonicity, ChiGrowsWithBudget) {
  OptimizationProblem p = problem_of(R"(
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      A[i,j,t+1] = A[i,j,t] + A[i-1,j,t] + A[i+1,j,t] + A[i,j-1,t] + A[i,j+1,t]
)");
  double X = GetParam();
  NumericOptimum lo = solve_default(p, X);
  NumericOptimum hi = solve_default(p, 2 * X);
  EXPECT_GT(hi.chi, lo.chi);
}

INSTANTIATE_TEST_SUITE_P(Budgets, ChiMonotonicity,
                         ::testing::Values(1e3, 1e4, 1e5, 1e6));

// ---------------------------------------------------------------------------
// The backend interface (bounds/opt): result codes, the shared feasibility
// projection, and the surfacing of non-convergence and stop trips.
// ---------------------------------------------------------------------------

OptimizationProblem gemm_problem() {
  return problem_of(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
}

/// Total budget use of a tile point: sum of the sum terms (the dominator
/// constraint's left-hand side).
double budget_use(const OptimizationProblem& p, const std::vector<double>& x) {
  double used = 0.0;
  for (const AccessTerm& t : p.sum_terms) used += t.eval(x);
  return used;
}

/// The shared feasibility projection: scales x by the largest uniform
/// factor feasible_scale admits, clamping each tile at the paper's
/// |D_t| >= 1; std::nullopt when even the all-ones point is infeasible.
std::optional<std::vector<double>> project(const OptimizationProblem& p,
                                           std::vector<double> x, double X) {
  const double m = opt::feasible_scale(p, x, X);
  if (m == 0.0) return std::nullopt;
  for (double& v : x) v = opt::clamp_tile(m * v);
  return x;
}

TEST(ResultCodes, NamesSeverityAndParsing) {
  using opt::ResultCode;
  EXPECT_STREQ(opt::result_code_name(ResultCode::kSuccess), "success");
  EXPECT_STREQ(opt::result_code_name(ResultCode::kStopReached),
               "stop_reached");
  EXPECT_STREQ(opt::result_code_name(ResultCode::kNoConverge), "no_converge");
  EXPECT_STREQ(opt::result_code_name(ResultCode::kInfeasible), "infeasible");
  // Every backend reports the display name its kind maps to.
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    EXPECT_EQ(opt::backend(kind).name(), opt::backend_name(kind));
  }
  EXPECT_STREQ(opt::backend_name(opt::BackendKind::kNelderMead),
               "nelder_mead");
}

// Reference oracle: a plain fixed-count bisection.  bisect_last_true must
// return the identical double, bit for bit.
template <typename Pred>
double fixed_count_bisection(double lo, double hi, int iters, Pred pred) {
  for (int it = 0; it < iters; ++it) {
    double mid = 0.5 * (lo + hi);
    (pred(mid) ? lo : hi) = mid;
  }
  return lo;
}

void expect_same_bits(double lo, double hi, int iters, double threshold) {
  const auto pred = [threshold](double m) { return m <= threshold; };
  const double want = fixed_count_bisection(lo, hi, iters, pred);
  const double got = opt::bisect_last_true(lo, hi, iters, pred);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "[" << lo << ", " << hi << "] x" << iters << " threshold "
      << threshold << ": " << got << " vs " << want;
}

TEST(BisectLastTrue, MatchesTheFixedCountLoopBitForBit) {
  // Roots at 0: the KKT (+-60, 100 iterations) and GP (+-80, 200) shift
  // projections converge there and exhaust their caps before the interval
  // collapses to one ULP, so the cap decides the result.
  expect_same_bits(-60.0, 60.0, 100, 0.0);
  expect_same_bits(-80.0, 80.0, 200, 0.0);
  expect_same_bits(-60.0, 60.0, 100, -1e-300);
  // All true: when the final midpoint rounds onto `hi`, `hi` itself must be
  // returned, as the fixed loop does, not the point one ULP below it.
  expect_same_bits(-60.0, 60.0, 100, 1e9);
  expect_same_bits(1e-12, 1e18, 200, 1e18);
  // All false: `lo` is returned untouched (and never evaluated).
  expect_same_bits(-80.0, 80.0, 200, -1e9);
  expect_same_bits(1e-12, 1.0, 200, 0.0);
  // A seeded sweep of thresholds over the three shapes in use, including
  // the feasible_scale bracket after its doubling loop.
  std::mt19937_64 rng(0x5EEDB15EC7ULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) {
    expect_same_bits(-60.0, 60.0, 100, -60.0 + 120.0 * unit(rng));
    expect_same_bits(-80.0, 80.0, 200, -80.0 + 160.0 * unit(rng));
    const double hi = std::pow(4.0, static_cast<int>(unit(rng) * 30.0));
    expect_same_bits(hi / 4.0, hi, 200, hi / 4.0 + 0.75 * hi * unit(rng));
  }
}

TEST(BisectLastTrue, StopsOnceTheIntervalCollapses) {
  // Far from zero the interval reaches one ULP long before a 200-step cap;
  // the helper stops there instead of re-evaluating a fixed point.
  int calls = 0;
  const double got = opt::bisect_last_true(1.0, 2.0, 200, [&](double m) {
    ++calls;
    return m <= 1.5;
  });
  EXPECT_EQ(got, 1.5);
  EXPECT_LT(calls, 60);
}

TEST(ProjectFeasible, ProjectedPointSatisfiesEveryConstraint) {
  OptimizationProblem p = gemm_problem();
  const double X = 3e4;
  // A wildly infeasible start: every tile far beyond the budget.
  auto proj = project(p, tile_point(p.vars, {{"i", 1e12},
                                             {"j", 3e11},
                                             {"k", 7e10}}),
                      X);
  ASSERT_TRUE(proj);
  EXPECT_LE(budget_use(p, *proj), X * (1.0 + 1e-9));
  for (const AccessTerm& t : p.single_terms) {
    EXPECT_LE(t.eval(*proj), X * (1.0 + 1e-9));
  }
  for (std::size_t i = 0; i < proj->size(); ++i) {
    EXPECT_GE((*proj)[i], 1.0) << p.vars[i];  // the paper's |D_t| >= 1
  }
  // The projection lands on the budget surface, not merely inside it.
  EXPECT_GE(budget_use(p, *proj), X * (1.0 - 1e-6));
}

TEST(ProjectFeasible, ReprojectionIsIdempotent) {
  OptimizationProblem p = gemm_problem();
  const double X = 1e6;
  auto once =
      project(p, tile_point(p.vars, {{"i", 5e7}, {"j", 5e7}, {"k", 2e3}}), X);
  ASSERT_TRUE(once);
  auto twice = project(p, *once, X);
  ASSERT_TRUE(twice);
  for (std::size_t i = 0; i < once->size(); ++i) {
    EXPECT_NEAR((*twice)[i], (*once)[i], 1e-6 * (*once)[i]) << p.vars[i];
  }
}

TEST(ProjectFeasible, InfeasibleProblemReturnsNullopt) {
  OptimizationProblem p = gemm_problem();
  // Even the all-ones point needs three loads (one element each of A, B
  // and C), so a budget of X = 1 admits no feasible tile.
  EXPECT_FALSE(project(p, std::vector<double>(p.vars.size(), 1e6), 1.0));
}

TEST(ProjectFeasible, MissingTileVariableThrows) {
  // A term naming a tile variable past the end of `vars` is rejected where
  // the problem enters the numeric layer: by every backend before it
  // searches, and by derive_chi before the exponent LP.
  OptimizationProblem p = gemm_problem();
  p.sum_terms[0].dims[0].vars.push_back(p.vars.size());
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    opt::SolveRequest request;
    request.X = 1e4;
    EXPECT_THROW(testing::sink(opt::backend(kind).solve(p, request)),
                 std::out_of_range)
        << opt::backend_name(kind);
  }
  EXPECT_THROW(testing::sink(derive_chi(p)), std::out_of_range);
}

TEST(OptimizerBackend, HealthySolveReportsSuccess) {
  OptimizationProblem p = gemm_problem();
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    opt::SolveRequest request;
    request.X = 3e4;
    opt::SolveResult result = opt::backend(kind).solve(p, request);
    EXPECT_EQ(result.code, opt::ResultCode::kSuccess)
        << opt::backend_name(kind);
    EXPECT_GT(result.optimum.chi, 0.0) << opt::backend_name(kind);
  }
}

TEST(OptimizerBackend, IterationStarvationSurfacesNoConverge) {
  // The hostile configuration: one iteration per local search cannot meet
  // the convergence tolerance.  Before the backend interface this fell
  // through silently; now every backend reports kNoConverge while still
  // returning the best point it found.
  OptimizationProblem p = gemm_problem();
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    opt::SolveRequest request;
    request.X = 3e4;
    request.max_iterations = 1;
    opt::SolveResult result = opt::backend(kind).solve(p, request);
    EXPECT_EQ(result.code, opt::ResultCode::kNoConverge)
        << opt::backend_name(kind);
    // The best-so-far point is still populated and feasible.
    EXPECT_GT(result.optimum.chi, 0.0) << opt::backend_name(kind);
    EXPECT_LE(budget_use(p, result.optimum.tiles),
              3e4 * (1.0 + 1e-6))
        << opt::backend_name(kind);
  }
}

TEST(OptimizerBackend, EvalBudgetSurfacesStopReachedWithoutThrowing) {
  OptimizationProblem p = gemm_problem();
  support::StopCriteria stop;
  stop.budget.max_solver_evals = 10;
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    opt::EvalGuard guard{&stop, 0};
    opt::SolveRequest request;
    request.X = 3e4;
    request.guard = &guard;
    opt::SolveResult result = opt::backend(kind).solve(p, request);
    EXPECT_EQ(result.code, opt::ResultCode::kStopReached)
        << opt::backend_name(kind);
    ASSERT_TRUE(result.stop_error.has_value()) << opt::backend_name(kind);
    EXPECT_EQ(result.stop_error->code(), support::StatusCode::kBudgetExceeded)
        << opt::backend_name(kind);
  }
}

TEST(OptimizerBackend, UnbudgetedSolveCountsEveryEvaluation) {
  // A guard without stop criteria still counts: `evaluations` reports the
  // same work as under a budget that never trips.
  OptimizationProblem p = gemm_problem();
  auto evaluations = [&p](const support::StopCriteria* stop) {
    opt::EvalGuard guard{stop, 0};
    opt::SolveRequest request;
    request.X = 3e4;
    request.guard = &guard;
    return opt::backend(opt::BackendKind::kNelderMead)
        .solve(p, request)
        .evaluations;
  };
  support::StopCriteria roomy;
  roomy.budget.max_solver_evals = 1u << 30;
  const std::uint64_t unbudgeted = evaluations(nullptr);
  EXPECT_GT(unbudgeted, 0u);
  EXPECT_EQ(unbudgeted, evaluations(&roomy));
}

TEST(DeriveChi, RecordsHealthySolveCode) {
  auto chi = derive_chi(gemm_problem());
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->solve_code, opt::ResultCode::kSuccess);
}

}  // namespace
}  // namespace soap::bounds
