// Exact closed-form summation of polynomials over integer ranges
// (Faulhaber's formula), used to compute symbolic iteration-domain sizes
// |D| for loop nests with affine bounds.
#pragma once

#include "support/interner.hpp"
#include "symbolic/polynomial.hpp"

namespace soap::sym {

/// power_sum(k): S_k(n) = sum_{i=1}^{n} i^k as a univariate polynomial in the
/// variable `n`.  Exact (Bernoulli-free recurrence).
Polynomial power_sum(int k, SymId n);

/// sum_{var = lo}^{hi} p(var, ...) as a polynomial in the remaining variables
/// (and whatever appears in lo/hi).  The identity used is
/// sum_{v=lo}^{hi} v^k = S_k(hi) - S_k(lo - 1); the result is exact whenever
/// hi >= lo - 1 pointwise (the usual non-empty-or-empty loop convention).
Polynomial sum_over(const Polynomial& p, SymId var, const Polynomial& lo,
                    const Polynomial& hi);

}  // namespace soap::sym
