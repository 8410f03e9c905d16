#include "bounds/intensity.hpp"

#include <stdexcept>

#include "symbolic/leading.hpp"

namespace soap::bounds {

using sym::Expr;

IntensityResult minimize_intensity(const ChiForm& chi) {
  IntensityResult out;
  Expr S = Expr::symbol("S");
  const Rational& a = chi.alpha;
  if (a == Rational(1)) {
    // rho(X) = (c X + lower) / (X - S) is decreasing; infimum c at X -> inf.
    out.rho = chi.coefficient;
    out.X0 = Expr(0);
    out.finite_X0 = false;
    return out;
  }
  if (a < Rational(1)) {
    // Cannot happen for well-formed problems (chi grows at least linearly
    // once any single variable may take the whole budget); treat like the
    // flat case for robustness.
    out.rho = chi.coefficient;
    out.X0 = Expr(0);
    out.finite_X0 = false;
    return out;
  }
  // d/dX [ c X^a / (X-S) ] = 0  =>  a (X-S) = X  =>  X0 = a/(a-1) S.
  Rational am1 = a - Rational(1);
  out.X0 = Expr(a / am1) * S;
  // rho(X0) = c X0^a / (X0 - S) = c * a^a / (a-1)^(a-1) * S^(a-1).
  Expr factor = sym::pow(Expr(a), a) / sym::pow(Expr(am1), am1);
  out.rho = chi.coefficient * factor * sym::pow(S, am1);
  out.finite_X0 = true;
  return out;
}

IoLowerBound assemble_bound(const sym::Expr& domain_size, const ChiForm& chi) {
  IoLowerBound out;
  IntensityResult in = minimize_intensity(chi);
  out.rho = in.rho;
  out.X0 = in.X0;
  out.finite_X0 = in.finite_X0;
  out.alpha = chi.alpha;
  out.chi_coeff = chi.coefficient;
  out.exact = chi.coefficient_exact;
  out.Q = domain_size / in.rho;
  static const SymIdSet s_only =
      SymIdSet::from_unsorted({intern_symbol("S")});
  out.Q_leading = sym::leading_term_except(out.Q, s_only);
  for (const auto& [v, e] : chi.exponents) {
    TileSize t;
    t.exponent = e;
    auto it = chi.tile_coeffs.find(v);
    if (it == chi.tile_coeffs.end()) {
      throw std::logic_error("assemble_bound: no tile coefficient for '" + v +
                             "' (call pick_tiles first)");
    }
    t.coefficient = it->second;
    out.tiles[v] = t;
  }
  return out;
}

}  // namespace soap::bounds
