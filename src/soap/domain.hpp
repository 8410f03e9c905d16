// Iteration domains of SOAP loop nests: loops with affine bounds, exact
// symbolic domain cardinality |D| via Faulhaber summation.
#pragma once

#include <string>
#include <vector>

#include "soap/access.hpp"
#include "symbolic/expr.hpp"
#include "symbolic/polynomial.hpp"

namespace soap {

/// One loop level `for var in range(lower, upper)`: the iteration variable
/// ranges over the half-open interval [lower, upper); bounds are affine in
/// outer iteration variables and program parameters.
struct Loop {
  std::string var;
  Affine lower;
  Affine upper;

  [[nodiscard]] std::string str() const;
};

/// Iteration domain D of a statement: the loop nest, outermost first.
class Domain {
 public:
  Domain() = default;
  explicit Domain(std::vector<Loop> loops) : loops_(std::move(loops)) {}

  [[nodiscard]] const std::vector<Loop>& loops() const { return loops_; }
  [[nodiscard]] std::size_t depth() const { return loops_.size(); }
  [[nodiscard]] std::vector<std::string> variables() const;
  [[nodiscard]] bool has_variable(const std::string& var) const;

  /// Exact |D| as a polynomial in the program parameters (Faulhaber over the
  /// nest, innermost first).  E.g. the LU domain k<N, k<i<N, k<j<N gives
  /// N^3/3 - N^2/2 + N/6.
  [[nodiscard]] sym::Polynomial cardinality() const;

  [[nodiscard]] std::string str() const;

 private:
  std::vector<Loop> loops_;
};

/// Converts an affine form to a polynomial (variables keep their names).
sym::Polynomial affine_to_polynomial(const Affine& a);

}  // namespace soap
