// Access-set size bounds for rectangular subcomputations: Lemma 3 (simple
// overlap accesses), Corollary 1 (input-output overlap) and the Section 5
// projections (version dimensions, maximal non-injective overlap).
//
// The analysis of a statement produces one `AccessTerm` per (pseudo-)array;
// the term knows the symbolic size of its access set |A_j| as a function of
// the tile sizes |D_t|, the monomials it contributes to the exponent LP, and
// how to evaluate itself numerically inside the optimizer.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "soap/statement.hpp"
#include "support/sym_map.hpp"
#include "symbolic/expr.hpp"

namespace soap::bounds {

/// Extent of one array dimension during a rectangular subcomputation, as a
/// function of the tile sizes of the iteration variables indexing it.
struct DimSpec {
  enum class Mode {
    kProduct,  ///< injective: extent = prod of the variables' tile sizes
    kMax       ///< Section 5.3 maximal overlap: extent = max of tile sizes
  };
  Mode mode = Mode::kProduct;
  std::vector<std::string> vars;  ///< iteration variables; empty => extent 1
  long long offsets = 0;          ///< |t-hat^i|, distinct non-zero offsets
};

/// How the access set size is counted.
enum class TermKind {
  kPlain,        ///< Lemma 3: 2*prod(e_i) - prod(e_i - c_i); reduces to
                 ///< prod(e_i) when all c_i = 0 (single access component)
  kInputOutput,  ///< Corollary 1: prod(e_i) - prod(e_i - c_i)
  kVersioned,    ///< Section 5.2 projection of an update A[phi] op= ...:
                 ///< counts prod(e_i) (the version dimension cancels)
  kOutput        ///< pure output (minimum-set constraint, not a load term)
};

struct AccessTerm {
  std::string array;
  TermKind kind = TermKind::kPlain;
  std::vector<DimSpec> dims;

  /// |A_j| as a symbolic expression in the tile-size symbols (one symbol per
  /// iteration variable, named exactly like the variable).
  [[nodiscard]] sym::Expr size_expr() const;

  /// Numeric evaluation of |A_j| for concrete tile sizes.
  [[nodiscard]] double eval(const std::map<std::string, double>& tiles) const;

  /// Variable sets of the dominant monomials this term contributes to the
  /// exponent LP (each monomial M yields the constraint
  /// sum_{v in M} a_v <= 1).
  [[nodiscard]] std::vector<std::vector<std::string>> lp_monomials() const;

  /// Full signed monomial expansion of |A_j| (inclusion-exclusion of the
  /// prod(e) - prod(e-c) structure).  Only valid for terms without kMax
  /// dimensions (has_max_dims() false).
  struct SignedMonomial {
    std::map<std::string, int> degrees;
    Rational coeff;
  };
  [[nodiscard]] std::vector<SignedMonomial> signed_monomials() const;
  [[nodiscard]] bool has_max_dims() const;

  [[nodiscard]] std::string str() const;
};

/// Evaluates |A| for the given counting rule, fed one dimension at a time
/// (extent e, offset count c).  prod(e) - prod(e - c) cancels
/// catastrophically for large tiles, so the fold carries it directly:
///   D' = e*D + c*P,  P' = P*(e - c),  prod' = prod*e,
/// starting from D = 0 and P = prod = 1.  For e >= c >= 0 every summand is
/// non-negative, so no step subtracts quantities of the magnitude of prod(e).
/// O(n) for any number of dimensions.  AccessTerm::eval and the optimizer's
/// index-compiled terms both feed it, so their numerics cannot drift apart.
class AccessSizeFold {
 public:
  void add(double extent, double offsets) {
    difference_ = extent * difference_ + offsets * shifted_;
    shifted_ *= extent - offsets;
    product_ *= extent;
    if (offsets > 0) any_offset_ = true;
  }

  [[nodiscard]] double value(TermKind kind) const {
    switch (kind) {
      case TermKind::kPlain:
        return any_offset_ ? product_ + difference_ : product_;
      case TermKind::kInputOutput:
        return difference_;
      case TermKind::kVersioned:
      case TermKind::kOutput:
        break;
    }
    return product_;
  }

 private:
  double difference_ = 0.0;  ///< prod(e) - prod(e - c) so far
  double shifted_ = 1.0;     ///< prod(e - c) so far
  double product_ = 1.0;     ///< prod(e) so far
  bool any_offset_ = false;
};

/// The bounds-engine view of a single SOAP statement.
struct StatementAnalysis {
  std::vector<std::string> tile_vars;   ///< iteration variables (loop order)
  std::vector<AccessTerm> input_terms;  ///< load terms (sum <= X)
  std::vector<AccessTerm> output_terms; ///< minimum-set terms (each <= X)
  sym::Expr domain_size;                ///< exact |D|
  sym::Expr domain_size_leading;        ///< leading term of |D|
};

/// Derives the access terms of a statement, applying the Section 5
/// projections: disjoint-access splitting must already have been applied
/// (soap::split_disjoint_accesses); version dimensions and non-injective
/// overlap modes are applied here.
StatementAnalysis analyze_statement(const Statement& st);

}  // namespace soap::bounds
