#include "symbolic/leading.hpp"

#include <algorithm>
#include <stdexcept>

namespace soap::sym {

Rational term_degree(const Expr& term, const SymIdSet& syms) {
  // Per-node symbol caches: a subtree whose symbol set misses `syms`
  // entirely has degree 0 without any walk.
  if ((term.node().sym_mask & syms.mask()) == 0) return Rational(0);
  switch (term.kind()) {
    case Kind::kConst:
      return Rational(0);
    case Kind::kSymbol:
      return syms.contains(term.sym_id()) ? Rational(1) : Rational(0);
    case Kind::kPow: {
      const Expr& base = term.operands()[0];
      if (base.kind() == Kind::kSymbol) {
        return syms.contains(base.sym_id()) ? term.exponent() : Rational(0);
      }
      // Degree of a power of a compound base: degree of the base times the
      // exponent (valid for the product-of-powers terms we produce).
      return term_degree(base, syms) * term.exponent();
    }
    case Kind::kMul: {
      Rational d = 0;
      for (const Expr& f : term.operands()) d += term_degree(f, syms);
      return d;
    }
    case Kind::kAdd:
    case Kind::kMin:
    case Kind::kMax: {
      Rational d = term_degree(term.operands()[0], syms);
      for (const Expr& t : term.operands())
        d = std::max(d, term_degree(t, syms));
      return d;
    }
  }
  throw std::logic_error("term_degree: bad kind");
}

Expr leading_term(const Expr& e, const SymIdSet& syms) {
  Expr x = expand(e);
  if (x.kind() != Kind::kAdd) return x;
  Rational best(-1000000);
  for (const Expr& t : x.operands()) best = std::max(best, term_degree(t, syms));
  ExprVec keep;
  for (const Expr& t : x.operands()) {
    if (term_degree(t, syms) == best) keep.push_back(t);
  }
  return make_add(std::move(keep));
}

Expr leading_term_except(const Expr& e, const SymIdSet& small) {
  std::vector<SymId> ids;
  for (SymId id : e.symbol_ids()) {
    if (!small.contains(id)) ids.push_back(id);
  }
  return leading_term(e, SymIdSet(std::move(ids)));  // already sorted
}

}  // namespace soap::sym
