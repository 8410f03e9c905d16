// Multivariate polynomials with exact rational coefficients.
//
// Used to compute exact symbolic cardinalities of SOAP iteration domains:
// a loop nest with affine bounds (`for k in range(N)`, `for i in range(k+1,N)`)
// induces |D| = sum over the nest of 1, which is a polynomial in the program
// parameters.  Summation over one variable with polynomial bounds is done via
// Faulhaber's formula (src/symbolic/faulhaber.*).
//
// Variables are interned SymIds (support/interner.hpp): monomial comparison
// is integer-lexicographic.  A name becomes a SymId only in
// Polynomial::variable(name); every lookup, substitution and evaluation
// takes SymIds.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/interner.hpp"
#include "support/rational.hpp"
#include "support/sym_map.hpp"
#include "symbolic/expr.hpp"

namespace soap::sym {

/// A monomial: sorted (variable, positive exponent) pairs. Empty == 1.
using Monomial = std::vector<std::pair<SymId, int>>;

/// Multivariate polynomial over Q.
class Polynomial {
 public:
  Polynomial() = default;
  Polynomial(const Rational& c);  // NOLINT(implicit)
  Polynomial(long long c) : Polynomial(Rational(c)) {}  // NOLINT(implicit)
  static Polynomial variable(SymId id);
  static Polynomial variable(const std::string& name);

  [[nodiscard]] bool is_zero() const { return terms_.empty(); }
  [[nodiscard]] bool is_constant() const;
  /// Requires is_constant().
  [[nodiscard]] Rational constant_value() const;

  Polynomial operator-() const;
  friend Polynomial operator+(const Polynomial& a, const Polynomial& b);
  friend Polynomial operator-(const Polynomial& a, const Polynomial& b);
  friend Polynomial operator*(const Polynomial& a, const Polynomial& b);
  Polynomial& operator+=(const Polynomial& o) { return *this = *this + o; }
  Polynomial& operator-=(const Polynomial& o) { return *this = *this - o; }
  Polynomial& operator*=(const Polynomial& o) { return *this = *this * o; }
  friend bool operator==(const Polynomial& a, const Polynomial& b) {
    return a.terms_ == b.terms_;
  }

  /// Degree in a single variable.
  [[nodiscard]] int degree(SymId var) const;
  /// Total degree across all variables (0 for constants; -1 for zero).
  [[nodiscard]] int total_degree() const;

  /// Simultaneous substitution of variables by polynomials.
  [[nodiscard]] Polynomial subs(const SymMap<Polynomial>& env) const;

  /// Coefficients of powers of `var`: result[k] is the coefficient polynomial
  /// of var^k (in the remaining variables). result.size() == degree(var)+1.
  [[nodiscard]] std::vector<Polynomial> coefficients_of(SymId var) const;

  /// Keep only the terms of maximal total degree (the leading-order part in
  /// the "all parameters large" regime used by Table 2).
  [[nodiscard]] Polynomial leading_terms() const;

  /// Convert to a symbolic expression.
  [[nodiscard]] Expr to_expr() const;

  [[nodiscard]] double eval(const SymMap<double>& env) const;

  [[nodiscard]] const std::map<Monomial, Rational>& terms() const {
    return terms_;
  }

  [[nodiscard]] std::string str() const { return to_expr().str(); }

 private:
  // Invariant: no zero coefficients stored.
  std::map<Monomial, Rational> terms_;
};

}  // namespace soap::sym
