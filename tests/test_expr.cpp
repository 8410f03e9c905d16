#include "symbolic/expr.hpp"

#include <gtest/gtest.h>

#include "sym_matchers.hpp"
#include "symbolic/leading.hpp"
#include "test_util.hpp"

namespace soap::sym {
namespace {

Expr N() { return Expr::symbol("N"); }
Expr S() { return Expr::symbol("S"); }
SymIdSet syms(std::initializer_list<std::string_view> names) {
  std::vector<SymId> ids;
  for (std::string_view name : names) ids.push_back(intern_symbol(name));
  return SymIdSet::from_unsorted(std::move(ids));
}

TEST(Expr, ConstantFolding) {
  EXPECT_EQ((Expr(2) + Expr(3)).str(), "5");
  EXPECT_EQ((Expr(2) * Expr(3) - Expr(6)).str(), "0");
  EXPECT_EQ((Expr(Rational(1, 2)) + Expr(Rational(1, 3))).str(), "5/6");
}

TEST(Expr, LikeTermCombination) {
  Expr e = N() + N() + Expr(2) * N();
  EXPECT_EQ(e.str(), "4*N");
  Expr zero = N() - N();
  EXPECT_TRUE(zero.is_zero());
}

TEST(Expr, LikeFactorCombination) {
  Expr e = N() * N() * N();
  EXPECT_EQ(e.str(), "N^3");
  Expr one = N() / N();
  EXPECT_TRUE(one.is_one());
  EXPECT_EQ((pow(N(), Rational(1, 2)) * pow(N(), Rational(1, 2))).str(), "N");
}

TEST(Expr, RadicalsOfConstants) {
  EXPECT_EQ(sqrt(Expr(4)).str(), "2");
  EXPECT_EQ(sqrt(Expr(12)).str(), "2*sqrt(3)");
  EXPECT_EQ(sqrt(Expr(2)) * sqrt(Expr(3)) * sqrt(Expr(6)), Expr(6));
  EXPECT_EQ(cbrt(Expr(Rational(8, 27))).str(), "2/3");
  // Denominator rationalization: sqrt(1/2) = sqrt(2)/2.
  EXPECT_EQ(pow(Expr(Rational(1, 2)), Rational(1, 2)).str(), "sqrt(2)/2");
}

TEST(Expr, PowerRules) {
  EXPECT_EQ(pow(pow(N(), Rational(2)), Rational(1, 2)), N());
  EXPECT_EQ(pow(N() * S(), Rational(1, 2)), sqrt(N()) * sqrt(S()));
  EXPECT_TRUE(pow(N(), Rational(0)).is_one());
  EXPECT_THROW(pow(Expr(0), Rational(-1)), std::domain_error);
}

TEST(Expr, CanonicalEqualityAcrossDerivations) {
  Expr a = Expr(2) * N() * N() * N() / sqrt(S());
  Expr b = N() * Expr(2) / pow(S(), Rational(1, 2)) * N() * N();
  EXPECT_EQ(a, b);
}

TEST(Expr, Eval) {
  Expr q = Expr(2) * pow(N(), Rational(3)) / sqrt(S());
  EXPECT_DOUBLE_EQ(q.eval({{"N", 10.0}, {"S", 4.0}}), 1000.0);
  EXPECT_THROW(testing::sink(q.eval({{"N", 1.0}})), std::out_of_range);
}

TEST(Expr, Subs) {
  Expr e = N() * N() + S();
  Expr sub = e.subs({{"N", Expr(3)}});
  EXPECT_EQ(sub, Expr(9) + S());
}

TEST(Expr, Diff) {
  Expr e = pow(Expr::symbol("X"), Rational(3, 2));
  EXPECT_EQ(e.diff(intern_symbol("X")),
            Expr(Rational(3, 2)) * sqrt(Expr::symbol("X")));
  Expr prod = Expr::symbol("X") * S();
  EXPECT_EQ(prod.diff(intern_symbol("X")), S());
  EXPECT_EQ(prod.diff(intern_symbol("Z")), Expr(0));
  // d/dX [X^2/(X-S)] vanishes at X = 2S.
  Expr X = Expr::symbol("X");
  Expr rho = pow(X, Rational(2)) / (X - S());
  Expr d = rho.diff(intern_symbol("X"));
  EXPECT_NEAR(d.eval({{"X", 20.0}, {"S", 10.0}}), 0.0, 1e-12);
}

TEST(Expr, MinMaxFolding) {
  Expr m = min({Expr(3), N(), Expr(5)});
  EXPECT_EQ(m, min({N(), Expr(3)}));
  EXPECT_EQ(max({Expr(3), Expr(5)}), Expr(5));
  EXPECT_EQ(min({N()}), N());
  EXPECT_DOUBLE_EQ(max({N(), S()}).eval({{"N", 2}, {"S", 7}}), 7.0);
}

TEST(Expr, Expand) {
  Expr e = (N() + Expr(1)) * (N() - Expr(1));
  EXPECT_EQ(expand(e), N() * N() - Expr(1));
  Expr sq = pow(N() + Expr(2), Rational(2));
  EXPECT_EQ(expand(sq), N() * N() + Expr(4) * N() + Expr(4));
  // Repeated factors must not recurse (regression: (x-2)^2 via a*b).
  Expr cube = pow(N() - Expr(2), Rational(3));
  EXPECT_EQ(expand(cube),
            N() * N() * N() - Expr(6) * N() * N() + Expr(12) * N() - Expr(8));
}

TEST(Expr, SymbolsAndContains) {
  Expr e = N() * S() + Expr::symbol("T");
  auto syms = e.symbols();
  ASSERT_EQ(syms.size(), 3u);
  EXPECT_TRUE(e.contains(intern_symbol("T")));
  EXPECT_FALSE(e.contains(intern_symbol("Z")));
}

TEST(Expr, Rendering) {
  EXPECT_EQ((Expr(2) * N() / (Expr(3) * sqrt(S()))).str(),
            "2*N/(3*sqrt(S))");
  EXPECT_EQ((N() - S()).str(), "N - S");
  EXPECT_EQ((-N()).str(), "-N");
  EXPECT_EQ((Expr(1) / (N() - S())).str(), "1/(N - S)");
}

TEST(LeadingTerm, PicksMaxDegree) {
  Expr e = N() * N() * N() / Expr(3) - N() * N() / Expr(2) + N();
  EXPECT_EQ(leading_term(e, syms({"N"})), N() * N() * N() / Expr(3));
}

TEST(LeadingTerm, TreatsSmallSymbolsAsConstants) {
  Expr e = Expr(2) * N() * N() / sqrt(S()) + N() * S();
  EXPECT_EQ(leading_term_except(e, syms({"S"})),
            Expr(2) * N() * N() / sqrt(S()));
}

TEST(LeadingTerm, SumsTies) {
  Expr e = N() * Expr::symbol("M") + N() * N() + Expr::symbol("M") *
           Expr::symbol("M");
  Expr lead = leading_term(e, syms({"N", "M"}));
  EXPECT_EQ(lead, e);  // all terms have total degree 2
}

TEST(TermDegree, RationalDegrees) {
  Expr t = Expr(2) * pow(N(), Rational(3)) / sqrt(S());
  EXPECT_EQ(term_degree(t, syms({"N"})), Rational(3));
  EXPECT_EQ(term_degree(t, syms({"N", "S"})), Rational(5, 2));
}

TEST(NumericallyEqual, DetectsEqualAndUnequal) {
  Expr a = (N() + S()) * (N() - S());
  Expr b = N() * N() - S() * S();
  EXPECT_SYM_EQ(a, b);
  EXPECT_SYM_NE(a, b + Expr(1));
}

class PowerFold : public ::testing::TestWithParam<int> {};

TEST_P(PowerFold, IntegerPowersOfConstantsFold) {
  int k = GetParam();
  Expr e = pow(Expr(k), Rational(2));
  ASSERT_TRUE(e.is_const());
  EXPECT_EQ(e.value(), Rational(k) * Rational(k));
  // sqrt(k^2) == k for non-negative k.
  Expr r = sqrt(Expr(k) * Expr(k));
  EXPECT_EQ(r, Expr(k));
}

INSTANTIATE_TEST_SUITE_P(Constants, PowerFold, ::testing::Range(1, 20));

}  // namespace
}  // namespace soap::sym
