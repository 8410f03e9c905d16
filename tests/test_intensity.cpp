#include "bounds/intensity.hpp"
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "symbolic/expr.hpp"

namespace soap::bounds {
namespace {

using sym::Expr;

ChiForm power_law(Rational alpha, double c_num, Expr c_exact) {
  ChiForm chi;
  chi.alpha = alpha;
  chi.coefficient = std::move(c_exact);
  chi.coefficient_num = c_num;
  chi.coefficient_exact = true;
  return chi;
}

TEST(MinimizeIntensity, MatrixMultiplicationClosedForm) {
  // chi = (X/3)^{3/2}: X0 = 3S, rho = sqrt(S)/2.
  ChiForm chi = power_law(Rational(3, 2), std::pow(1.0 / 3.0, 1.5),
                          sym::pow(Expr(Rational(1, 27)), Rational(1, 2)));
  IntensityResult r = minimize_intensity(chi);
  ASSERT_TRUE(r.finite_X0);
  EXPECT_EQ(r.X0, Expr(3) * Expr::symbol("S"));
  EXPECT_EQ(r.rho, sym::sqrt(Expr::symbol("S")) / Expr(2));
}

TEST(MinimizeIntensity, QuadraticStencil) {
  // chi = X^2/8 (jacobi1d leading order): X0 = 2S, rho = S/2.
  ChiForm chi = power_law(Rational(2), 0.125, Expr(Rational(1, 8)));
  IntensityResult r = minimize_intensity(chi);
  EXPECT_EQ(r.X0, Expr(2) * Expr::symbol("S"));
  EXPECT_EQ(r.rho, Expr::symbol("S") / Expr(2));
}

TEST(MinimizeIntensity, AlphaOneGoesToInfinity) {
  ChiForm chi = power_law(Rational(1), 2.0, Expr(2));
  IntensityResult r = minimize_intensity(chi);
  EXPECT_FALSE(r.finite_X0);
  EXPECT_EQ(r.rho, Expr(2));
}

TEST(MinimizeIntensity, AgreesWithSymbolicDerivativeRoot) {
  // For chi = c X^a the closed form X0 = a/(a-1) S must zero
  // d/dX [chi/(X-S)].
  for (Rational a : {Rational(3, 2), Rational(2), Rational(4, 3)}) {
    ChiForm chi = power_law(a, 1.0, Expr(1));
    IntensityResult r = minimize_intensity(chi);
    Expr X = Expr::symbol("X");
    Expr rho_fn = sym::pow(X, a) / (X - Expr::symbol("S"));
    Expr d = rho_fn.diff(intern_symbol("X"));
    double s = 1e6;
    double x0 = r.X0.eval({{"S", s}});
    EXPECT_NEAR(d.eval({{"X", x0}, {"S", s}}), 0.0, 1e-9) << a.str();
  }
}

TEST(MinimizeIntensity, AgreesWithNumericScan) {
  // rho(X0) must be the global minimum over a dense scan of X > S.
  ChiForm chi =
      power_law(Rational(4, 3), std::pow(0.25, 4.0 / 3.0) / 2.0,
                sym::pow(Expr(Rational(1, 2048)), Rational(1, 3)));  // heat3d
  IntensityResult r = minimize_intensity(chi);
  double s = 4096;
  double rho_at_x0 = r.rho.eval({{"S", s}});
  double c = chi.coefficient_num;
  double best = 1e300;
  for (double x = s * 1.01; x < s * 100; x *= 1.01) {
    best = std::min(best, c * std::pow(x, 4.0 / 3.0) / (x - s));
  }
  EXPECT_NEAR(rho_at_x0, best, 1e-3 * best);
}

TEST(AssembleBound, ComposesDomainAndIntensity) {
  ChiForm chi = power_law(Rational(3, 2), std::pow(1.0 / 3.0, 1.5),
                          sym::pow(Expr(Rational(1, 27)), Rational(1, 2)));
  Expr N = Expr::symbol("N");
  IoLowerBound b = assemble_bound(N * N * N, chi);
  EXPECT_EQ(b.Q_leading,
            Expr(2) * N * N * N / sym::sqrt(Expr::symbol("S")));
  EXPECT_EQ(b.alpha, Rational(3, 2));
}

TEST(AssembleBound, AnExponentWithoutATileCoefficientIsALogicError) {
  ChiForm chi = power_law(Rational(2), 0.125, Expr(Rational(1, 8)));
  chi.exponents["i"] = Rational(1);
  chi.exponents["t"] = Rational(1);
  chi.tile_coeffs["i"] = 0.5;
  const Expr N = Expr::symbol("N");
  EXPECT_THROW(assemble_bound(N * N, chi), std::logic_error);
  chi.tile_coeffs["t"] = 0.25;
  const IoLowerBound b = assemble_bound(N * N, chi);
  EXPECT_EQ(b.tiles.at("i").coefficient, 0.5);
  EXPECT_EQ(b.tiles.at("t").coefficient, 0.25);
}

TEST(AssembleBound, DropsLowerOrderDomainTerms) {
  ChiForm chi = power_law(Rational(2), 0.125, Expr(Rational(1, 8)));
  Expr N = Expr::symbol("N"), T = Expr::symbol("T");
  // |D| = N*T - 2T (boundary-trimmed): leading term N*T survives.
  IoLowerBound b = assemble_bound(N * T - Expr(2) * T, chi);
  EXPECT_EQ(b.Q_leading, Expr(2) * N * T / Expr::symbol("S"));
}

}  // namespace
}  // namespace soap::bounds
