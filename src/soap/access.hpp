// Access-function machinery of the SOAP program class (Section 3 of the
// paper): affine index expressions, access-function vectors, translation
// vectors and access-offset sets.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "support/interner.hpp"
#include "support/rational.hpp"
#include "support/sym_map.hpp"

namespace soap {

/// An affine form  c0 + sum_i c_i * var_i  over iteration variables and
/// program parameters.  Used for array subscripts and loop bounds.
/// Variables are interned SymIds; a name becomes one only in
/// Affine::variable(name).
class Affine {
 public:
  Affine() = default;
  Affine(long long c) : constant_(c) {}  // NOLINT(implicit)
  Affine(const Rational& c) : constant_(c) {}  // NOLINT(implicit)
  static Affine variable(SymId id);
  static Affine variable(const std::string& name);

  [[nodiscard]] const Rational& constant() const { return constant_; }
  /// SymId-keyed coefficients (iteration order: SymId, not name).
  [[nodiscard]] const SymMap<Rational>& coeffs() const { return coeffs_; }
  [[nodiscard]] Rational coeff(SymId var) const;
  [[nodiscard]] bool is_constant() const { return coeffs_.empty(); }
  /// Variables with non-zero coefficient, sorted by name.
  [[nodiscard]] std::vector<std::string> variables() const;

  Affine operator-() const;
  friend Affine operator+(const Affine& a, const Affine& b);
  friend Affine operator-(const Affine& a, const Affine& b);
  /// Scalar multiple.
  friend Affine operator*(const Rational& s, const Affine& a);
  friend bool operator==(const Affine& a, const Affine& b) {
    return a.constant_ == b.constant_ && a.coeffs_ == b.coeffs_;
  }

  [[nodiscard]] Rational eval(const SymMap<Rational>& env) const;
  [[nodiscard]] std::string str() const;

 private:
  Rational constant_ = 0;
  SymMap<Rational> coeffs_;  // invariant: no zero coefficients
};

/// One access-function-vector component phi_{j,k}: a subscript tuple, one
/// affine form per array dimension.
struct AccessComponent {
  std::vector<Affine> index;

  friend bool operator==(const AccessComponent& a, const AccessComponent& b) {
    return a.index == b.index;
  }
  [[nodiscard]] std::string str() const;
};

/// All accesses of one statement to one array: the access-function vector
/// phi_j = [phi_{j,1}, ..., phi_{j,n_j}].
struct ArrayAccess {
  std::string array;
  std::vector<AccessComponent> components;

  [[nodiscard]] std::size_t dim() const {
    return components.empty() ? 0 : components[0].index.size();
  }
  [[nodiscard]] std::string str() const;
};

/// Checks the simple-overlap property (Section 3, property 6): all components
/// are equal up to constant translation vectors.  On success returns the
/// translation vectors t_k relative to components[0] (t_1 = 0).
std::optional<std::vector<std::vector<Rational>>> simple_overlap_translations(
    const ArrayAccess& access);

/// Access-offset sets (Definition 3): for each array dimension i, the set of
/// distinct non-zero i-th coordinates among the translation vectors.
/// Returns |t-hat^i| per dimension.
std::vector<long long> access_offset_counts(
    const std::vector<std::vector<Rational>>& translations);

}  // namespace soap
