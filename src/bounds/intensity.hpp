// Computational intensity rho(X) = chi(X)/(X - S) and its symbolic
// minimization (Section 4.5 of the paper).
#pragma once

#include "bounds/optimizer.hpp"
#include "bounds/result.hpp"
#include "symbolic/expr.hpp"

namespace soap::bounds {

/// Minimizes rho(X) = c X^alpha / (X - S) over X > S, leading order in S:
///   alpha > 1:  X0 = alpha/(alpha-1) * S,
///               rho_min = c * alpha^alpha / (alpha-1)^(alpha-1) * S^(alpha-1)
///   alpha = 1:  rho decreases towards c as X -> infinity (finite_X0=false).
/// Lower-order terms of chi (offset corrections) do not affect the leading
/// order of rho_min; tests/test_intensity.cpp verifies the closed form
/// against symbolic differentiation and numeric minimization.
struct IntensityResult {
  sym::Expr rho;   ///< leading order in S
  sym::Expr X0;
  bool finite_X0 = true;
};

IntensityResult minimize_intensity(const ChiForm& chi);

/// Assembles the full bound Q >= |D| / rho_min from a domain size and chi.
/// Throws std::logic_error when an exponent of `chi` has no tile
/// coefficient (a relaxed GP's ChiForm before pick_tiles).
IoLowerBound assemble_bound(const sym::Expr& domain_size,
                            const ChiForm& chi);

}  // namespace soap::bounds
