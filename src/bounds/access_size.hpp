// Access-set size bounds for rectangular subcomputations: Lemma 3 (simple
// overlap accesses), Corollary 1 (input-output overlap) and the Section 5
// projections (version dimensions, maximal non-injective overlap).
//
// The analysis of a statement produces one `AccessTerm` per (pseudo-)array;
// the term knows the size of its access set |A_j| as a function of the tile
// sizes |D_t|, the monomials it contributes to the exponent LP, and how to
// evaluate itself numerically inside the optimizer.  A tile variable is
// always named by its position in the statement's (or merged subgraph's)
// tile-variable list, which the optimization problem copies verbatim.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "soap/statement.hpp"
#include "support/rational.hpp"

namespace soap::bounds {

/// Extent of one array dimension during a rectangular subcomputation, as a
/// function of the tile sizes of the iteration variables indexing it.
struct DimSpec {
  enum class Mode {
    kProduct,  ///< injective: extent = prod of the variables' tile sizes
    kMax       ///< Section 5.3 maximal overlap: extent = max of tile sizes
  };
  Mode mode = Mode::kProduct;
  std::vector<std::size_t> vars;  ///< tile-variable positions; empty => 1
  long long offsets = 0;          ///< |t-hat^i|, distinct non-zero offsets
};

/// Degrees of a monomial prod_v x_v^deg, keyed by tile-variable position.
using MonomialDegrees = std::map<std::size_t, int>;

/// How the access set size is counted.
enum class TermKind {
  kPlain,        ///< Lemma 3: 2*prod(e_i) - prod(e_i - c_i); reduces to
                 ///< prod(e_i) when all c_i = 0 (single access component)
  kInputOutput,  ///< Corollary 1: prod(e_i) - prod(e_i - c_i)
  kVersioned,    ///< Section 5.2 projection of an update A[phi] op= ...:
                 ///< counts prod(e_i) (the version dimension cancels)
  kOutput        ///< pure output (minimum-set constraint, not a load term)
};

/// Evaluates |A| for the given counting rule, fed one dimension at a time
/// (extent e, offset count c).  prod(e) - prod(e - c) cancels
/// catastrophically for large tiles, so the fold carries it directly:
///   D' = e*D + c*P,  P' = P*(e - c),  prod' = prod*e,
/// starting from D = 0 and P = prod = 1.  For e >= c >= 0 every summand is
/// non-negative, so no step subtracts quantities of the magnitude of prod(e).
/// O(n) for any number of dimensions.
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

struct AccessTerm {
  std::string array;
  TermKind kind = TermKind::kPlain;
  std::vector<DimSpec> dims;

  /// |A_j| at concrete tile sizes: x[v] is the size of tile variable v.
  [[nodiscard]] double eval(const std::vector<double>& x) const {
    AccessSizeFold fold;
    for (const DimSpec& d : dims) {
      // Empty dimensions have extent 1; kMax starts from 0 and takes maxima.
      double extent = d.vars.empty()                  ? 1.0
                      : d.mode == DimSpec::Mode::kMax ? 0.0
                                                      : 1.0;
      for (std::size_t v : d.vars) {
        extent = d.mode == DimSpec::Mode::kMax ? std::max(extent, x[v])
                                               : extent * x[v];
      }
      fold.add(extent, static_cast<double>(d.offsets));
    }
    return fold.value(kind);
  }

  /// Variable sets (ascending positions) of the dominant monomials this
  /// term contributes to the exponent LP (each monomial M yields the
  /// constraint sum_{v in M} a_v <= 1).
  [[nodiscard]] std::vector<std::vector<std::size_t>> lp_monomials() const;

  /// Full signed monomial expansion of |A_j| (inclusion-exclusion of the
  /// prod(e) - prod(e-c) structure).  Only valid for terms without kMax
  /// dimensions (has_max_dims() false).
  struct SignedMonomial {
    MonomialDegrees degrees;
    Rational coeff;
  };
  [[nodiscard]] std::vector<SignedMonomial> signed_monomials() const;
  [[nodiscard]] bool has_max_dims() const;
};

/// The bounds-engine view of a single SOAP statement.
struct StatementAnalysis {
  std::vector<std::string> tile_vars;   ///< iteration variables (loop order)
  std::vector<AccessTerm> input_terms;  ///< load terms (sum <= X)
  std::vector<AccessTerm> output_terms; ///< minimum-set terms (each <= X)
};

/// Derives the access terms of a statement, applying the Section 5
/// projections: disjoint-access splitting must already have been applied
/// (soap::split_disjoint_accesses); version dimensions and non-injective
/// overlap modes are applied here.  Every DimSpec::vars entry is a position
/// in the returned tile_vars.
StatementAnalysis analyze_statement(const Statement& st);

}  // namespace soap::bounds
