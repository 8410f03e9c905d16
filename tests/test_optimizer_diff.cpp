// The optimizer differential harness (docs/OPTIMIZER.md): every numeric
// backend must agree with the exact-LP exponent and with every other
// backend's constant — corpus-wide (one problem per statement of every
// registered kernel) and over a fuzzed stream of generated feasible
// problems.  Agreement is graded: exponents and LP data are exact and must
// match bit for bit; a constant both backends snapped must be the same
// interned expression (pointer identity under hash-consing); an unsnapped
// constant must match within a small relative tolerance.  The corpus
// sweep also pins whole-kernel parity: multistart must reproduce every
// default bound.  The same harness is the oracle of the asymptotic GP: a
// constant the GP supplied, relaxed or not, must agree within 1% with the
// numeric fit at X = 1e12, on statement, subgraph and fuzzed problems; and
// the corpus's constants are counted by source.  Labeled `optimizer` so CI
// can run the differential suite on its own.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bounds/opt/backend.hpp"
#include "bounds/opt/types.hpp"
#include "bounds/optimizer.hpp"
#include "bounds/single_statement.hpp"
#include "kernels/table2.hpp"
#include "problem_fuzz.hpp"
#include "sdg/merge.hpp"
#include "sdg/multi_statement.hpp"
#include "sdg/sdg.hpp"
#include "sdg/subgraph.hpp"
#include "support/cancel.hpp"
#include "support/parallel.hpp"

namespace soap::bounds {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr opt::BackendKind kBackends[] = {opt::BackendKind::kNelderMead,
                                          opt::BackendKind::kMultistart,
                                          opt::BackendKind::kSubplex};
constexpr std::size_t kBackendCount = 3;

double rel_diff(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) / scale;
}

/// The graded agreement contract between the reference backend's ChiForm
/// and another backend's, on the same problem.
void expect_agreement(const std::string& label, const ChiForm& ref,
                      const ChiForm& other, double constant_rel_tol) {
  // The exponent is exact (LP) and backend-independent by construction;
  // asserting it pins the contract against a backend that would bypass or
  // re-derive it.
  EXPECT_EQ(ref.alpha, other.alpha) << label;
  EXPECT_EQ(ref.exponents, other.exponents) << label;
  EXPECT_NE(other.solve_code, opt::ResultCode::kInfeasible) << label;
  if (ref.coefficient_exact && other.coefficient_exact) {
    // Both snapped: under hash-consing, equality is pointer identity — the
    // strongest agreement statement expressible.
    EXPECT_EQ(ref.coefficient, other.coefficient)
        << label << " exact constants differ: " << ref.coefficient.str()
        << " vs " << other.coefficient.str();
  } else {
    EXPECT_EQ(ref.coefficient_exact, other.coefficient_exact)
        << label << " snap disagreement (c = " << ref.coefficient_num
        << " vs " << other.coefficient_num << ")";
    EXPECT_LE(rel_diff(ref.coefficient_num, other.coefficient_num),
              constant_rel_tol)
        << label << " c = " << ref.coefficient_num << " vs "
        << other.coefficient_num;
  }
}

/// Whether a constant the asymptotic GP supplied agrees with the numeric
/// fit within 1% of the larger (the check derive_chi made in production
/// before it took the GP's constant without a numeric solve).
bool within_one_percent(double c_gp, double c_num) {
  return std::fabs(c_gp - c_num) <= 1e-2 * std::max(c_gp, c_num);
}

/// chi of `kind`'s raw solve at budget X, seeded at the LP exponents the
/// way derive_chi seeds its numeric fit.
double raw_chi(const OptimizationProblem& problem, const ChiForm& chi,
               opt::BackendKind kind, double X) {
  opt::SolveRequest request;
  request.X = X;
  std::vector<double> seed;
  for (const std::string& v : problem.vars) {
    seed.push_back(chi.exponents.at(v).to_double() * std::log(X));
  }
  request.seeds = {std::move(seed)};
  return opt::backend(kind).solve(problem, request).optimum.chi;
}

/// The constant of `kind`'s numeric fit: chi(X) / X^alpha at X = 1e12.
double numeric_constant(const OptimizationProblem& problem, const ChiForm& chi,
                        opt::BackendKind kind) {
  return raw_chi(problem, chi, kind, 1e12) /
         std::pow(1e12, chi.alpha.to_double());
}

/// |dlog chi / dlog X - alpha| of `kind`'s raw solves at X = 1e9 and 1e12:
/// the numeric optimum must track c * X^alpha, not only at the fitted
/// budget.
double slope_residual(const OptimizationProblem& problem, const ChiForm& chi,
                      opt::BackendKind kind) {
  const double x_lo = 1e9;
  const double x_hi = 1e12;
  const double slope = (std::log(raw_chi(problem, chi, kind, x_hi)) -
                        std::log(raw_chi(problem, chi, kind, x_lo))) /
                       (std::log(x_hi) - std::log(x_lo));
  return std::fabs(slope - chi.alpha.to_double());
}

/// One problem solved through every backend; derivation errors are
/// captured as text so the workers stay assertion-free (asserts run on the
/// main thread) and so an error must reproduce under every backend to pass.
struct Differential {
  std::array<std::optional<ChiForm>, kBackendCount> chi;
  std::array<std::string, kBackendCount> error;
  std::array<double, kBackendCount> slope_residual{};
  /// The default backend's numeric constant when the GP supplied chi[0].
  std::optional<double> numeric_constant;
};

Differential run_all_backends(const OptimizationProblem& problem) {
  Differential d;
  for (std::size_t b = 0; b < kBackendCount; ++b) {
    try {
      d.chi[b] = derive_chi(problem, {}, kBackends[b]);
    } catch (const support::AnalysisError& e) {
      d.error[b] = e.what();
    }
    if (d.chi[b]) {
      d.slope_residual[b] = slope_residual(problem, *d.chi[b], kBackends[b]);
    }
  }
  if (d.chi[0] && d.chi[0]->source != ChiSource::kNumeric) {
    d.numeric_constant = numeric_constant(problem, *d.chi[0], kBackends[0]);
  }
  return d;
}

void expect_differential_agreement(const std::string& label,
                                   const Differential& d,
                                   double constant_rel_tol) {
  if (d.numeric_constant) {
    EXPECT_TRUE(within_one_percent(d.chi[0]->coefficient_num,
                                   *d.numeric_constant))
        << label << " GP c = " << d.chi[0]->coefficient_num
        << " vs numeric " << *d.numeric_constant;
  }
  for (std::size_t b = 0; b < kBackendCount; ++b) {
    const std::string who =
        label + " [" + std::string(opt::backend_name(kBackends[b])) + "]";
    // Every backend's numeric optimum must track c * X^alpha.
    EXPECT_LT(d.slope_residual[b], 0.05) << who;
    if (b == 0) continue;
    EXPECT_EQ(d.error[0], d.error[b]) << who;
    ASSERT_EQ(d.chi[0].has_value(), d.chi[b].has_value()) << who;
    if (d.chi[0] && d.chi[b]) {
      expect_agreement(who, *d.chi[0], *d.chi[b], constant_rel_tol);
    }
  }
}

/// Every problem the corpus path hands derive_chi for `k`: one merged
/// problem per enumerated subgraph, under the kernel's recorded options.
std::vector<sdg::MergedSubgraph> subgraph_problems(
    const kernels::KernelEntry& k) {
  const Program program = k.build();
  const sdg::Sdg graph = sdg::Sdg::build(program);
  std::vector<sdg::MergedSubgraph> out;
  for (const auto& arrays : sdg::enumerate_subgraphs(
           graph, k.options.max_subgraph_size, k.options.max_subgraphs)) {
    out.push_back(sdg::merge_subgraph(graph, arrays));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry sweep: one problem per statement of every registered kernel.
// ---------------------------------------------------------------------------

std::vector<std::string> corpus_names() {
  if (kSanitized) {
    // Sanitizer builds sweep the same representative subset as the
    // determinism suite (fusion-heavy, stencil, neural, post-paper rows).
    return {"gemm", "cholesky", "jacobi2d", "atax",   "mvt",
            "bicg", "gesummv",  "2mm",      "lulesh", "softmax",
            "horizontal_diffusion", "flash_attention", "spmv_csr"};
  }
  std::vector<std::string> names;
  for (const auto& k : kernels::Registry::instance().kernels()) {
    names.push_back(k.name);
  }
  return names;
}

class BackendAgreement : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendAgreement, EveryStatementProblemAgreesAcrossBackends) {
  const kernels::KernelEntry& k = kernels::kernel_by_name(GetParam());
  Program program = k.build();
  ASSERT_FALSE(program.statements.empty()) << k.name;
  for (std::size_t si = 0; si < program.statements.size(); ++si) {
    const OptimizationProblem problem =
        statement_problem(program.statements[si]);
    const std::string label =
        k.name + " statement #" + std::to_string(si) + " (" +
        program.statements[si].name + ")";
    // Corpus statements are well-conditioned: a snapped constant must be
    // the identical interned expression, an unsnapped one near-bitwise.
    expect_differential_agreement(label, run_all_backends(problem), 1e-9);
  }
}

TEST_P(BackendAgreement, MultistartReproducesTheDefaultKernelBound) {
  // Multistart runs a superset of the default backend's starts, so on the
  // well-conditioned corpus the whole derivation — every subgraph's chi fit
  // — must land on the identical interned bound (pointer identity).
  const kernels::KernelEntry& k = kernels::kernel_by_name(GetParam());
  const Program program = k.build();
  sdg::SdgOptions options = k.options;
  options.threads = 0;
  options.optimizer = opt::BackendKind::kNelderMead;
  const auto reference = sdg::multi_statement_bound(program, options);
  options.optimizer = opt::BackendKind::kMultistart;
  const auto multistart = sdg::multi_statement_bound(program, options);
  ASSERT_TRUE(reference) << k.name;
  ASSERT_TRUE(multistart) << k.name;
  EXPECT_EQ(reference->Q_leading, multistart->Q_leading)
      << k.name << ": " << reference->Q_leading.str() << " vs "
      << multistart->Q_leading.str();
}

TEST_P(BackendAgreement, GpConstantOfEverySubgraphMatchesTheNumericFit) {
  // The corpus path (multi_statement_bound) takes most constants from the
  // GP, many of them relaxed; the numeric fit it no longer runs must agree.
  const kernels::KernelEntry& k = kernels::kernel_by_name(GetParam());
  for (const sdg::MergedSubgraph& merged : subgraph_problems(k)) {
    const std::optional<ChiForm> chi = derive_chi(merged.problem);
    if (!chi || chi->source == ChiSource::kNumeric) continue;
    const double c_num =
        numeric_constant(merged.problem, *chi, opt::BackendKind::kNelderMead);
    EXPECT_TRUE(within_one_percent(chi->coefficient_num, c_num))
        << k.name << " subgraph " << merged.str() << ": GP c = "
        << chi->coefficient_num << " vs numeric " << c_num;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, BackendAgreement,
                         ::testing::ValuesIn(corpus_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

TEST(GpCoverage, CorpusConstantsBySource) {
  // The 176 bounded derive_chi calls of the registry corpus: 92 take the GP
  // over the whole problem and 69 the relaxation without its potentially
  // active single terms.  The other 15 keep the numeric fit: each has
  // several objective monomials that attain alpha, where the GP's one
  // monomial does not stand for the objective.
  std::size_t gp = 0;
  std::size_t relaxed = 0;
  std::size_t numeric = 0;
  for (const auto& k : kernels::Registry::instance().kernels()) {
    for (const sdg::MergedSubgraph& merged : subgraph_problems(k)) {
      const std::optional<ChiForm> chi = derive_chi(merged.problem);
      if (!chi) continue;
      switch (chi->source) {
        case ChiSource::kGp:
          ++gp;
          EXPECT_EQ(chi->tile_coeffs.size(), merged.problem.vars.size());
          break;
        case ChiSource::kRelaxedGp:
          ++relaxed;
          EXPECT_TRUE(chi->tile_coeffs.empty());
          break;
        case ChiSource::kNumeric:
          ++numeric;
          EXPECT_EQ(chi->tile_coeffs.size(), merged.problem.vars.size());
          break;
      }
    }
  }
  EXPECT_EQ(gp, 92u);
  EXPECT_EQ(relaxed, 69u);
  EXPECT_EQ(numeric, 15u);
}

// ---------------------------------------------------------------------------
// Fuzz sweep: generated feasible problems, deterministic seeds.
// ---------------------------------------------------------------------------

struct FuzzOutcome {
  std::uint64_t seed = 0;
  Differential diff;
};

TEST(OptimizerDifferential, FuzzedProblemsAgreeAcrossBackends) {
  const std::size_t n = kSanitized ? 150 : 1000;
  support::ParallelOptions popts;
  popts.threads = 0;  // all hardware threads; results are index-slotted
  popts.grain = 8;
  const std::vector<FuzzOutcome> outcomes =
      support::parallel_map<FuzzOutcome>(n, popts, [](std::size_t i) {
        FuzzOutcome out;
        // Fixed base, odd stride: distinct deterministic streams per index.
        out.seed = 0x0BD1F00DULL + static_cast<std::uint64_t>(i) *
                                       0x9E3779B97F4A7C15ULL;
        soap::testing::FuzzRng rng(out.seed);
        out.diff = run_all_backends(soap::testing::random_problem(rng));
        return out;
      });
  for (const FuzzOutcome& out : outcomes) {
    const std::string label = "fuzz seed " + std::to_string(out.seed);
    // Generated problems are feasible by construction; a derivation error
    // under any backend is a bug, not an agreement question.
    EXPECT_TRUE(out.diff.error[0].empty())
        << label << ": " << out.diff.error[0];
    // Fuzzed constants may legitimately resist snapping, so the numeric
    // tolerance is looser than the corpus sweep's.
    expect_differential_agreement(label, out.diff, 1e-2);
  }
}

TEST(OptimizerDifferential, FuzzStreamIsDeterministic) {
  // The harness itself must be reproducible: the same seed builds the same
  // problem and the same Differential (pointer-identical exact constants).
  soap::testing::FuzzRng a(0x0BD1F00DULL);
  soap::testing::FuzzRng b(0x0BD1F00DULL);
  const OptimizationProblem pa = soap::testing::random_problem(a);
  const OptimizationProblem pb = soap::testing::random_problem(b);
  ASSERT_EQ(pa.vars, pb.vars);
  ASSERT_EQ(pa.sum_terms.size(), pb.sum_terms.size());
  const Differential da = run_all_backends(pa);
  const Differential db = run_all_backends(pb);
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    ASSERT_EQ(da.chi[i].has_value(), db.chi[i].has_value());
    if (!da.chi[i]) continue;
    EXPECT_EQ(da.chi[i]->alpha, db.chi[i]->alpha);
    EXPECT_EQ(da.chi[i]->coefficient, db.chi[i]->coefficient);
    // Bit-exact: the numeric pipeline must not depend on run-to-run state.
    EXPECT_EQ(da.chi[i]->coefficient_num, db.chi[i]->coefficient_num);
  }
}

}  // namespace
}  // namespace soap::bounds
