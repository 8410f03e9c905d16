// Leading-order-term extraction: Table 2 of the paper reports the
// "simplified leading order term" of each bound, i.e. the summand of maximal
// total degree in the program-size parameters (N, M, T, ...) with the fast
// memory size S treated as a fixed parameter.
//
// Symbol sets are SymIdSets: the per-node symbol caches and bloom masks
// make degree queries cheap.
#pragma once

#include "support/sym_map.hpp"
#include "symbolic/expr.hpp"

namespace soap::sym {

/// Total degree of a (canonical, non-Add) term in the given symbols.
/// E.g. degree of 2*N^3/sqrt(S) in {N} is 3; in {N, S} it is 5/2.
Rational term_degree(const Expr& term, const SymIdSet& syms);

/// Expands `e` and keeps only the summands of maximal total degree in `syms`
/// (ties are summed).  Symbols not listed (typically S) count as degree 0.
Expr leading_term(const Expr& e, const SymIdSet& syms);

/// Convenience: leading term w.r.t. every symbol except those in `small`.
Expr leading_term_except(const Expr& e, const SymIdSet& small);

}  // namespace soap::sym
