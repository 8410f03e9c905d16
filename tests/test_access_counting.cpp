// Machine-checks the combinatorial heart of the paper: the access-set size
#include <functional>
#include <cmath>
// formulas (Lemma 3 / Corollary 1) and the dominator-set bound
// |Dom_min(H_rec)| >= sum_j |A_j| against brute-force enumeration on
// explicit CDAGs.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "bounds/access_size.hpp"
#include "frontend/lower.hpp"
#include "pebbles/dominator.hpp"
#include "pebbles/instantiate.hpp"
#include "soap/projection.hpp"
#include "test_util.hpp"

namespace soap {
namespace {

using bounds::AccessTerm;
using bounds::analyze_statement;
using testing::tile_point;

// Distinct elements of `array` touched when executing `st` over the
// rectangular tile given by [0, tile[var]) per variable.
long long brute_force_access_count(
    const Statement& st, const std::string& array,
    const std::map<std::string, long long>& tile) {
  std::set<std::vector<long long>> seen;
  std::vector<std::string> vars = st.domain.variables();
  SymMap<Rational> env;
  std::function<void(std::size_t)> rec = [&](std::size_t depth) {
    if (depth == vars.size()) {
      for (const ArrayAccess& in : st.inputs) {
        if (in.array != array) continue;
        for (const AccessComponent& comp : in.components) {
          std::vector<long long> idx;
          for (const Affine& a : comp.index) {
            idx.push_back(static_cast<long long>(a.eval(env).floor()));
          }
          seen.insert(std::move(idx));
        }
      }
      return;
    }
    for (long long v = 0; v < tile.at(vars[depth]); ++v) {
      env.set(vars[depth], Rational(v));
      rec(depth + 1);
    }
  };
  rec(0);
  return static_cast<long long>(seen.size());
}

Statement stencil_statement(int left, int right) {
  // B[i,t] = f(A[i-left..i+right, t], A[i, t-1]) over a 2D nest.
  Statement st;
  st.name = "stencil";
  Affine i = Affine::variable("i"), t = Affine::variable("t");
  st.domain = Domain({{"t", 0, Affine::variable("T")},
                      {"i", 0, Affine::variable("N")}});
  st.output = {"B", {{{i, t}}}};
  ArrayAccess a;
  a.array = "A";
  for (int o = -left; o <= right; ++o) {
    a.components.push_back({{i + Affine(o), t}});
  }
  a.components.push_back({{i, t - Affine(1)}});
  st.inputs = {a};
  return st;
}

class Lemma3LowerBound
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Lemma3LowerBound, FormulaNeverExceedsTrueAccessCount) {
  auto [left, right, ti, tt] = GetParam();
  Statement st = stencil_statement(left, right);
  auto analysis = analyze_statement(st);
  ASSERT_EQ(analysis.input_terms.size(), 1u);
  const AccessTerm& term = analysis.input_terms[0];
  std::map<std::string, long long> tile = {{"i", ti}, {"t", tt}};
  double formula = term.eval(tile_point(
      analysis.tile_vars,
      {{"i", static_cast<double>(ti)}, {"t", static_cast<double>(tt)}}));
  long long actual = brute_force_access_count(st, "A", tile);
  EXPECT_LE(formula, static_cast<double>(actual) + 1e-9)
      << "offsets [-" << left << "," << right << "] tile " << ti << "x" << tt;
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndTiles, Lemma3LowerBound,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 4, 7),
                       ::testing::Values(1, 3, 5)));

TEST(Lemma3, ExactForContiguousStencil) {
  // For the 3-point stencil the paper's bound 2*e_i*e_t - (e_i-2)(e_t-1) is
  // attained by the antipodal arrangement; the natural contiguous placement
  // accesses (e_i + 2) * e_t + e_i (halo + next-t row), strictly more.
  Statement st = stencil_statement(1, 1);
  auto analysis = analyze_statement(st);
  const AccessTerm& term = analysis.input_terms[0];
  double formula =
      term.eval(tile_point(analysis.tile_vars, {{"i", 4.0}, {"t", 3.0}}));
  // 2*4*3 - (4-2)*(3-1) = 24 - 4 = 20.
  EXPECT_DOUBLE_EQ(formula, 20.0);
}

TEST(Corollary1, VersionedUpdateCountsProduct) {
  // C[i,j] += ... : the version-dimension projection counts x_i * x_j.
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  Statement split = split_disjoint_accesses(p.statements[0]);
  auto analysis = analyze_statement(split);
  const AccessTerm* c_term = nullptr;
  for (const auto& t : analysis.input_terms) {
    if (t.array == "C") c_term = &t;
  }
  ASSERT_NE(c_term, nullptr);
  EXPECT_EQ(c_term->kind, bounds::TermKind::kInputOutput);
  EXPECT_DOUBLE_EQ(
      c_term->eval(tile_point(analysis.tile_vars,
                              {{"i", 5.0}, {"j", 7.0}, {"k", 3.0}})),
      35.0);
}

TEST(DominatorBound, AccessSetsFormADominator) {
  // The union of the access sets is itself a dominator of H (every path from
  // an input enters H through an accessed vertex), so the true minimum
  // dominator never exceeds sum_j |A_j(tile)|; it is also at least |Min(H)|
  // of the slab's final updates.
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  const long long n = 3;
  auto detail = pebbles::instantiate_detailed(p, {{"N", n}});
  Statement split = split_disjoint_accesses(p.statements[0]);
  auto analysis = analyze_statement(split);
  for (long long kmax = 1; kmax <= n; ++kmax) {
    std::vector<std::size_t> H;
    for (const auto& [v, iter] : detail.iteration_of) {
      if (iter[2] < kmax) H.push_back(v);  // iteration vector (i, j, k)
    }
    double analytic = 0;
    std::map<std::string, double> tile = {{"i", double(n)},
                                          {"j", double(n)},
                                          {"k", double(kmax)}};
    const std::vector<double> x = tile_point(analysis.tile_vars, tile);
    for (const auto& t : analysis.input_terms) analytic += t.eval(x);
    long long dom = pebbles::min_dominator_size(detail.cdag, H);
    EXPECT_LE(static_cast<double>(dom), analytic + 1e-9) << "kmax=" << kmax;
    EXPECT_GE(dom, static_cast<long long>(
                       pebbles::minimum_set(detail.cdag, H).size()) == 0
                  ? 1
                  : 1)
        << "kmax=" << kmax;
    EXPECT_GT(dom, 0) << "kmax=" << kmax;
  }
}

TEST(MinimumSet, OutputTermBoundsMinSet) {
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    C[i,j] = A[i] * B[j]
)");
  auto detail = pebbles::instantiate_detailed(p, {{"N", 4}});
  std::vector<std::size_t> H;
  for (const auto& [v, iter] : detail.iteration_of) H.push_back(v);
  auto min_set = pebbles::minimum_set(detail.cdag, H);
  // Every computed vertex is a sink here: Min(H) = 16 = x_i * x_j.
  EXPECT_EQ(min_set.size(), 16u);
  auto analysis = analyze_statement(p.statements[0]);
  ASSERT_EQ(analysis.output_terms.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.output_terms[0].eval(tile_point(
                       analysis.tile_vars, {{"i", 4.0}, {"j", 4.0}})),
                   16.0);
}

TEST(SignedMonomials, MatchEvalOnRandomTiles) {
  Statement st = stencil_statement(1, 1);
  auto analysis = analyze_statement(st);
  const AccessTerm& term = analysis.input_terms[0];
  auto monos = term.signed_monomials();
  for (double xi : {1.0, 3.0, 8.0}) {
    for (double xt : {1.0, 2.0, 9.0}) {
      const std::vector<double> x =
          tile_point(analysis.tile_vars, {{"i", xi}, {"t", xt}});
      double direct = term.eval(x);
      double summed = 0;
      for (const auto& m : monos) {
        double v = m.coeff.to_double();
        for (const auto& [var, d] : m.degrees) v *= std::pow(x[var], d);
        summed += v;
      }
      EXPECT_NEAR(direct, summed, 1e-9);
    }
  }
}

// The O(2^n) inclusion-exclusion that AccessSizeFold replaced, kept as the
// oracle: prod(e) - prod(e - c) expanded over every non-empty subset T of
// the dimensions as (-1)^{|T|+1} prod_{i in T} c_i prod_{i not in T} e_i.
double inclusion_exclusion_size(bounds::TermKind kind,
                                const std::vector<double>& e,
                                const std::vector<double>& c) {
  const std::size_t n = e.size();
  double prod = 1.0;
  bool any_offset = false;
  for (std::size_t i = 0; i < n; ++i) {
    prod *= e[i];
    if (c[i] > 0) any_offset = true;
  }
  double difference = 0.0;
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    double term = 1.0;
    int bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) {
        term *= c[i];
        ++bits;
      } else {
        term *= e[i];
      }
    }
    difference += bits % 2 == 1 ? term : -term;
  }
  switch (kind) {
    case bounds::TermKind::kPlain:
      return any_offset ? prod + difference : prod;
    case bounds::TermKind::kInputOutput:
      return difference;
    case bounds::TermKind::kVersioned:
    case bounds::TermKind::kOutput:
      break;
  }
  return prod;
}

// A term with one single-variable dimension per offset count (dimension i
// is indexed by tile variable i with c[i] offsets), so the tile point e
// gives dimension i the extent e[i].
AccessTerm fold_term(bounds::TermKind kind, const std::vector<long long>& c) {
  AccessTerm term;
  term.array = "A";
  term.kind = kind;
  for (std::size_t i = 0; i < c.size(); ++i) {
    term.dims.push_back({bounds::DimSpec::Mode::kProduct, {i}, c[i]});
  }
  return term;
}

constexpr bounds::TermKind kAllKinds[] = {
    bounds::TermKind::kPlain, bounds::TermKind::kInputOutput,
    bounds::TermKind::kVersioned, bounds::TermKind::kOutput};

TEST(AccessSizeFold, MatchesInclusionExclusionOnRandomTerms) {
  std::mt19937_64 rng(0xF01DAC5E55ULL);
  std::uniform_real_distribution<double> log_extent(0.0, std::log(1e3));
  std::uniform_int_distribution<long long> offset(0, 3);
  for (std::size_t n = 0; n <= 10; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<double> e(n);
      std::vector<long long> c(n);
      std::vector<double> cd(n);
      for (std::size_t i = 0; i < n; ++i) {
        e[i] = std::exp(log_extent(rng));
        c[i] = offset(rng);
        cd[i] = static_cast<double>(c[i]);
      }
      for (bounds::TermKind kind : kAllKinds) {
        const double want = inclusion_exclusion_size(kind, e, cd);
        const double tol = 1e-12 * std::fabs(want);
        const std::string label = "n=" + std::to_string(n) + " trial " +
                                  std::to_string(trial) + " kind " +
                                  std::to_string(static_cast<int>(kind));
        EXPECT_NEAR(fold_term(kind, c).eval(e), want, tol) << label;
      }
    }
  }
}

TEST(AccessSizeFold, LargeTilesKeepFullPrecision) {
  // prod(e) is ~1e36 here while |A| is ~1e24: a direct prod(e) - prod(e-c)
  // in double would keep only about four significant digits.  The reference
  // is the telescoped sum c_i * prod_{j<i}(e_j - c_j) * prod_{j>i} e_j in
  // long double, whose summands are all positive.
  const std::vector<double> e = {1.234567890123e12, 9.87654321e11,
                                 1.000000000007e12};
  const std::vector<long long> c = {1, 2, 1};
  long double difference = 0.0L;
  long double prod = 1.0L;
  for (std::size_t i = 0; i < e.size(); ++i) {
    long double summand = static_cast<long double>(c[i]);
    for (std::size_t j = 0; j < e.size(); ++j) {
      if (j < i) summand *= static_cast<long double>(e[j] - c[j]);
      if (j > i) summand *= static_cast<long double>(e[j]);
    }
    difference += summand;
    prod *= static_cast<long double>(e[i]);
  }
  const double want_io = static_cast<double>(difference);
  EXPECT_NEAR(fold_term(bounds::TermKind::kInputOutput, c).eval(e), want_io,
              1e-12 * want_io);
  const double want_plain = static_cast<double>(prod + difference);
  EXPECT_NEAR(fold_term(bounds::TermKind::kPlain, c).eval(e), want_plain,
              1e-12 * want_plain);
}

TEST(AccessSizeFold, EvaluatesTwentyFourDimensions) {
  // Beyond the 20 dimensions the subset expansion could enumerate.  Extent
  // 2 and offset 1 everywhere: prod(e) - prod(e - c) = 2^24 - 1, exactly.
  const std::vector<double> e(24, 2.0);
  const std::vector<long long> c(24, 1);
  const double two24 = 16777216.0;
  EXPECT_EQ(fold_term(bounds::TermKind::kInputOutput, c).eval(e),
            two24 - 1.0);
  EXPECT_EQ(fold_term(bounds::TermKind::kPlain, c).eval(e), 2.0 * two24 - 1.0);
  EXPECT_EQ(fold_term(bounds::TermKind::kVersioned, c).eval(e), two24);
}

}  // namespace
}  // namespace soap
