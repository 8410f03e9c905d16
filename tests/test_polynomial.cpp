#include "symbolic/polynomial.hpp"
#include <cmath>

#include <gtest/gtest.h>

#include "symbolic/faulhaber.hpp"

namespace soap::sym {
namespace {

Polynomial n() { return Polynomial::variable("n"); }

TEST(Polynomial, Arithmetic) {
  Polynomial p = n() * n() + Polynomial(Rational(1, 2)) * n();
  Polynomial q = p - p;
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ((p + p).eval({{"n", 2.0}}), 10.0);
}

TEST(Polynomial, Degrees) {
  Polynomial p = n() * n() * Polynomial::variable("m") + n();
  EXPECT_EQ(p.degree(intern_symbol("n")), 2);
  EXPECT_EQ(p.degree(intern_symbol("m")), 1);
  EXPECT_EQ(p.total_degree(), 3);
  EXPECT_EQ(Polynomial(5).total_degree(), 0);
  EXPECT_EQ(Polynomial().total_degree(), -1);
}

TEST(Polynomial, Substitution) {
  Polynomial p = n() * n();
  Polynomial sub = p.subs({{"n", n() + Polynomial(1)}});
  EXPECT_EQ(sub, n() * n() + Polynomial(2) * n() + Polynomial(1));
}

TEST(Polynomial, CoefficientsOf) {
  Polynomial m = Polynomial::variable("m");
  Polynomial p = n() * n() * m + n() * Polynomial(3) + Polynomial(7);
  auto cs = p.coefficients_of(intern_symbol("n"));
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0], Polynomial(7));
  EXPECT_EQ(cs[1], Polynomial(3));
  EXPECT_EQ(cs[2], m);
}

TEST(Polynomial, LeadingTerms) {
  Polynomial p = n() * n() - Polynomial(5) * n();
  EXPECT_EQ(p.leading_terms(), n() * n());
}

TEST(Faulhaber, KnownClosedForms) {
  // sum i   = n(n+1)/2
  Polynomial s1 = power_sum(1, intern_symbol("n"));
  EXPECT_EQ(s1, Polynomial(Rational(1, 2)) * (n() * n() + n()));
  // sum i^2 = n(n+1)(2n+1)/6
  Polynomial s2 = power_sum(2, intern_symbol("n"));
  EXPECT_DOUBLE_EQ(s2.eval({{"n", 10.0}}), 385.0);
  // sum i^3 = (n(n+1)/2)^2
  Polynomial s3 = power_sum(3, intern_symbol("n"));
  EXPECT_DOUBLE_EQ(s3.eval({{"n", 10.0}}), 3025.0);
}

class FaulhaberBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FaulhaberBruteForce, MatchesDirectSummation) {
  auto [k, upper] = GetParam();
  Polynomial sk = power_sum(k, intern_symbol("n"));
  double direct = 0;
  for (int i = 1; i <= upper; ++i) {
    direct += std::pow(static_cast<double>(i), k);
  }
  EXPECT_DOUBLE_EQ(sk.eval({{"n", static_cast<double>(upper)}}), direct)
      << "k=" << k << " n=" << upper;
}

INSTANTIATE_TEST_SUITE_P(PowersAndRanges, FaulhaberBruteForce,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(1, 2, 5, 13)));

TEST(SumOver, PolynomialBounds) {
  // sum_{v=0}^{N-1} 1 = N
  const SymId vi = intern_symbol("v");
  Polynomial N = Polynomial::variable("N");
  Polynomial one(1);
  EXPECT_EQ(sum_over(one, vi, Polynomial(0), N - Polynomial(1)), N);
  // sum_{v=k+1}^{N-1} 1 = N - k - 1
  Polynomial k = Polynomial::variable("k");
  EXPECT_EQ(sum_over(one, vi, k + Polynomial(1), N - Polynomial(1)),
            N - k - Polynomial(1));
  // sum_{v=0}^{N-1} v = N(N-1)/2
  Polynomial v = Polynomial::variable(vi);
  EXPECT_EQ(sum_over(v, vi, Polynomial(0), N - Polynomial(1)),
            Polynomial(Rational(1, 2)) * (N * N - N));
}

TEST(SumOver, NestedTriangularVolume) {
  // LU domain: k in [0,N), i and j in [k+1, N): |D| = sum (N-k-1)^2.
  Polynomial N = Polynomial::variable("N");
  Polynomial k = Polynomial::variable("k");
  Polynomial inner = (N - k - Polynomial(1)) * (N - k - Polynomial(1));
  Polynomial vol =
      sum_over(inner, intern_symbol("k"), Polynomial(0), N - Polynomial(1));
  // Exact: N^3/3 - N^2/2 + N/6.
  EXPECT_DOUBLE_EQ(vol.eval({{"N", 10.0}}), 285.0);
  EXPECT_EQ(vol.leading_terms(),
            Polynomial(Rational(1, 3)) * N * N * N);
}

}  // namespace
}  // namespace soap::sym
