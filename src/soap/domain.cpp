#include "soap/domain.hpp"

#include <algorithm>

#include "symbolic/faulhaber.hpp"

namespace soap {

std::string Loop::str() const {
  return "for " + var + " in range(" + lower.str() + ", " + upper.str() + ")";
}

std::vector<std::string> Domain::variables() const {
  std::vector<std::string> out;
  out.reserve(loops_.size());
  for (const Loop& l : loops_) out.push_back(l.var);
  return out;
}

bool Domain::has_variable(const std::string& var) const {
  return std::any_of(loops_.begin(), loops_.end(),
                     [&var](const Loop& l) { return l.var == var; });
}

sym::Polynomial affine_to_polynomial(const Affine& a) {
  sym::Polynomial p(a.constant());
  for (const auto& [v, c] : a.coeffs()) {
    p += sym::Polynomial(c) * sym::Polynomial::variable(v);
  }
  return p;
}

sym::Polynomial Domain::cardinality() const {
  // sum over the nest, innermost summed first:
  //   |D| = sum_{v1} ... sum_{vl} 1, with range(lo, hi) = [lo, hi-1].
  sym::Polynomial acc(1);
  for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
    sym::Polynomial lo = affine_to_polynomial(it->lower);
    sym::Polynomial hi = affine_to_polynomial(it->upper) - sym::Polynomial(1);
    acc = sym::sum_over(acc, intern_symbol(it->var), lo, hi);
  }
  return acc;
}

std::string Domain::str() const {
  std::string out;
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    out += std::string(2 * i, ' ') + loops_[i].str() + ":\n";
  }
  return out;
}

}  // namespace soap
