#include "symbolic/faulhaber.hpp"

#include <stdexcept>
#include <vector>

namespace soap::sym {

namespace {

Rational binomial(int n, int k) {
  Rational r = 1;
  for (int i = 0; i < k; ++i) {
    r *= Rational(n - i);
    r /= Rational(i + 1);
  }
  return r;
}

}  // namespace

Polynomial power_sum(int k, SymId n) {
  if (k < 0) throw std::invalid_argument("power_sum: negative exponent");
  // Recurrence from telescoping (n+1)^{k+1} - 1 = sum_{j<=k} C(k+1,j) S_j(n):
  //   S_k(n) = [ (n+1)^{k+1} - 1 - sum_{j<k} C(k+1,j) S_j(n) ] / (k+1).
  std::vector<Polynomial> s(static_cast<std::size_t>(k) + 1);
  Polynomial nv = Polynomial::variable(n);
  for (int m = 0; m <= k; ++m) {
    Polynomial np1 = nv + Polynomial(1);
    Polynomial lead = 1;
    for (int i = 0; i <= m; ++i) lead *= np1;  // (n+1)^{m+1}
    Polynomial acc = lead - Polynomial(1);
    for (int j = 0; j < m; ++j) {
      acc -= Polynomial(binomial(m + 1, j)) * s[static_cast<std::size_t>(j)];
    }
    s[static_cast<std::size_t>(m)] =
        Polynomial(Rational(1, m + 1)) * acc;
  }
  return s[static_cast<std::size_t>(k)];
}

Polynomial sum_over(const Polynomial& p, SymId var, const Polynomial& lo,
                    const Polynomial& hi) {
  static const SymId aux = intern_symbol("__faulhaber_n");
  std::vector<Polynomial> coeffs = p.coefficients_of(var);
  Polynomial lo_minus_1 = lo - Polynomial(1);
  Polynomial out;
  for (std::size_t k = 0; k < coeffs.size(); ++k) {
    if (coeffs[k].is_zero()) continue;
    Polynomial sk = power_sum(static_cast<int>(k), aux);
    SymMap<Polynomial> at_hi_env{{aux, hi}};
    SymMap<Polynomial> at_lo_env{{aux, lo_minus_1}};
    Polynomial at_hi = sk.subs(at_hi_env);
    Polynomial at_lo = sk.subs(at_lo_env);
    out += coeffs[k] * (at_hi - at_lo);
  }
  return out;
}

}  // namespace soap::sym
