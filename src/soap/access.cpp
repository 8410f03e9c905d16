#include "soap/access.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace soap {

Affine Affine::variable(SymId id) {
  Affine a;
  a.coeffs_[id] = Rational(1);
  return a;
}

Affine Affine::variable(const std::string& name) {
  return variable(intern_symbol(name));
}

Rational Affine::coeff(SymId var) const {
  const Rational* c = coeffs_.find(var);
  return c == nullptr ? Rational(0) : *c;
}

std::vector<std::string> Affine::variables() const {
  std::vector<std::string> out;
  out.reserve(coeffs_.size());
  for (const auto& [v, _] : coeffs_) out.push_back(symbol_name(v));
  std::sort(out.begin(), out.end());
  return out;
}

Affine Affine::operator-() const {
  Affine out;
  out.constant_ = -constant_;
  for (const auto& [v, c] : coeffs_) out.coeffs_[v] = -c;
  return out;
}

Affine operator+(const Affine& a, const Affine& b) {
  Affine out = a;
  out.constant_ += b.constant_;
  for (const auto& [v, c] : b.coeffs_) {
    Rational& slot = out.coeffs_[v];
    slot += c;
    if (slot.is_zero()) out.coeffs_.erase(v);
  }
  return out;
}

Affine operator-(const Affine& a, const Affine& b) { return a + (-b); }

Affine operator*(const Rational& s, const Affine& a) {
  Affine out;
  if (s.is_zero()) return out;
  out.constant_ = s * a.constant_;
  for (const auto& [v, c] : a.coeffs_) out.coeffs_[v] = s * c;
  return out;
}

Rational Affine::eval(const SymMap<Rational>& env) const {
  Rational r = constant_;
  for (const auto& [v, c] : coeffs_) {
    const Rational* bound = env.find(v);
    if (bound == nullptr) {
      throw std::out_of_range("Affine::eval: unbound variable " +
                              symbol_name(v));
    }
    r += c * *bound;
  }
  return r;
}

std::string Affine::str() const {
  // Render in name order (the SymId-keyed storage iterates in intern order,
  // which would make output depend on interning history).
  std::vector<std::pair<std::string, Rational>> named;
  named.reserve(coeffs_.size());
  for (const auto& [id, c] : coeffs_) named.emplace_back(symbol_name(id), c);
  std::sort(named.begin(), named.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream os;
  bool first = true;
  for (const auto& [v, c] : named) {
    if (first) {
      if (c == Rational(1)) {
        os << v;
      } else if (c == Rational(-1)) {
        os << "-" << v;
      } else {
        os << c.str() << "*" << v;
      }
      first = false;
      continue;
    }
    if (c.is_negative()) {
      os << " - ";
      if (-c != Rational(1)) os << (-c).str() << "*";
    } else {
      os << " + ";
      if (c != Rational(1)) os << c.str() << "*";
    }
    os << v;
  }
  if (!constant_.is_zero() || first) {
    if (first) {
      os << constant_.str();
    } else if (constant_.is_negative()) {
      os << " - " << (-constant_).str();
    } else {
      os << " + " << constant_.str();
    }
  }
  return os.str();
}

std::string AccessComponent::str() const {
  std::string out = "[";
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (i) out += ",";
    out += index[i].str();
  }
  return out + "]";
}

std::string ArrayAccess::str() const {
  std::string out = array;
  for (const AccessComponent& c : components) out += c.str();
  return out;
}

std::optional<std::vector<std::vector<Rational>>> simple_overlap_translations(
    const ArrayAccess& access) {
  if (access.components.empty()) return std::nullopt;
  const AccessComponent& base = access.components[0];
  std::vector<std::vector<Rational>> out;
  out.reserve(access.components.size());
  for (const AccessComponent& comp : access.components) {
    if (comp.index.size() != base.index.size()) return std::nullopt;
    std::vector<Rational> t(comp.index.size());
    for (std::size_t d = 0; d < comp.index.size(); ++d) {
      Affine diff = comp.index[d] - base.index[d];
      if (!diff.is_constant()) return std::nullopt;  // not a simple overlap
      t[d] = diff.constant();
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<long long> access_offset_counts(
    const std::vector<std::vector<Rational>>& translations) {
  if (translations.empty()) return {};
  const std::size_t dim = translations[0].size();
  std::vector<long long> counts(dim, 0);
  for (std::size_t d = 0; d < dim; ++d) {
    std::set<std::string> distinct;
    for (const auto& t : translations) {
      if (!t[d].is_zero()) distinct.insert(t[d].str());
    }
    counts[d] = static_cast<long long>(distinct.size());
  }
  return counts;
}

}  // namespace soap
