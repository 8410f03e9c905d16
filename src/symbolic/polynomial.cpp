#include "symbolic/polynomial.hpp"

#include <algorithm>
#include <stdexcept>

namespace soap::sym {

namespace {

Monomial mono_mul(const Monomial& a, const Monomial& b) {
  Monomial out;
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j].first < a[i].first) {
      out.push_back(b[j++]);
    } else {
      out.emplace_back(a[i].first, a[i].second + b[j].second);
      ++i;
      ++j;
    }
  }
  return out;
}

int mono_total_degree(const Monomial& m) {
  int d = 0;
  for (const auto& [_, e] : m) d += e;
  return d;
}

}  // namespace

Polynomial::Polynomial(const Rational& c) {
  if (!c.is_zero()) terms_[{}] = c;
}

Polynomial Polynomial::variable(SymId id) {
  Polynomial p;
  p.terms_[{{id, 1}}] = Rational(1);
  return p;
}

Polynomial Polynomial::variable(const std::string& name) {
  return variable(intern_symbol(name));
}

bool Polynomial::is_constant() const {
  return terms_.empty() || (terms_.size() == 1 && terms_.begin()->first.empty());
}

Rational Polynomial::constant_value() const {
  if (terms_.empty()) return Rational(0);
  if (!is_constant())
    throw std::logic_error("Polynomial::constant_value on non-constant");
  return terms_.begin()->second;
}

Polynomial Polynomial::operator-() const {
  Polynomial out;
  for (const auto& [m, c] : terms_) out.terms_[m] = -c;
  return out;
}

Polynomial operator+(const Polynomial& a, const Polynomial& b) {
  Polynomial out = a;
  for (const auto& [m, c] : b.terms_) {
    Rational& slot = out.terms_[m];
    slot += c;
    if (slot.is_zero()) out.terms_.erase(m);
  }
  return out;
}

Polynomial operator-(const Polynomial& a, const Polynomial& b) {
  return a + (-b);
}

Polynomial operator*(const Polynomial& a, const Polynomial& b) {
  Polynomial out;
  for (const auto& [ma, ca] : a.terms_) {
    for (const auto& [mb, cb] : b.terms_) {
      Monomial m = mono_mul(ma, mb);
      Rational& slot = out.terms_[m];
      slot += ca * cb;
      if (slot.is_zero()) out.terms_.erase(m);
    }
  }
  return out;
}

int Polynomial::degree(SymId var) const {
  int d = 0;
  for (const auto& [m, _] : terms_) {
    for (const auto& [v, e] : m) {
      if (v == var) d = std::max(d, e);
    }
  }
  return d;
}

int Polynomial::total_degree() const {
  if (terms_.empty()) return -1;
  int d = 0;
  for (const auto& [m, _] : terms_) d = std::max(d, mono_total_degree(m));
  return d;
}

Polynomial Polynomial::subs(const SymMap<Polynomial>& env) const {
  Polynomial out;
  for (const auto& [m, c] : terms_) {
    Polynomial term(c);
    for (const auto& [v, e] : m) {
      const Polynomial* bound = env.find(v);
      Polynomial base = bound != nullptr ? *bound : variable(v);
      for (int i = 0; i < e; ++i) term *= base;
    }
    out += term;
  }
  return out;
}

std::vector<Polynomial> Polynomial::coefficients_of(SymId var) const {
  std::vector<Polynomial> out(static_cast<std::size_t>(degree(var)) + 1);
  for (const auto& [m, c] : terms_) {
    int k = 0;
    Monomial rest;
    for (const auto& [v, e] : m) {
      if (v == var) {
        k = e;
      } else {
        rest.emplace_back(v, e);
      }
    }
    Polynomial piece;
    piece.terms_[rest] = c;
    out[static_cast<std::size_t>(k)] += piece;
  }
  return out;
}

Polynomial Polynomial::leading_terms() const {
  int d = total_degree();
  Polynomial out;
  for (const auto& [m, c] : terms_) {
    if (mono_total_degree(m) == d) out.terms_[m] = c;
  }
  return out;
}

Expr Polynomial::to_expr() const {
  // Batch canonicalization: one make_mul per monomial and one make_add over
  // all terms replace the quadratic operator*/operator+ folding chains.  The
  // canonical result node is identical (same term multiset), so eval() keeps
  // its floating-point ordering.
  ExprVec terms;
  for (const auto& [m, c] : terms_) {
    ExprVec factors;
    factors.reserve(m.size() + 1);
    factors.emplace_back(c);
    for (const auto& [v, e] : m) {
      factors.push_back(pow(Expr::symbol(v), Rational(e)));
    }
    terms.push_back(make_mul(std::move(factors)));
  }
  return make_add(std::move(terms));
}

double Polynomial::eval(const SymMap<double>& env) const {
  // Via the canonical Expr: the floating-point evaluation order (and thus
  // rounding) is Expr::eval's, which the golden tests pin with DOUBLE_EQ.
  return to_expr().eval(env);
}

}  // namespace soap::sym
