#include "problem_fuzz.hpp"

#include <string>
#include <vector>

namespace soap::testing {

namespace {

using bounds::AccessTerm;
using bounds::DimSpec;
using bounds::ObjectiveMonomial;
using bounds::OptimizationProblem;
using bounds::TermKind;

/// Non-empty random subset of the variable indices 0..n-1.
std::vector<int> random_subset(FuzzRng& rng, int n) {
  std::vector<int> subset;
  for (int v = 0; v < n; ++v) {
    if (rng.range(0, 1) == 1) subset.push_back(v);
  }
  if (subset.empty()) subset.push_back(rng.range(0, n - 1));
  return subset;
}

/// A random access term over the given variable indices: each chosen
/// variable lands in its own dimension (kProduct) unless the coin pairs it
/// with the previous one into a shared dimension — exercising both the
/// independent-extent and joint-extent shapes.  Deliberately no kMax
/// dimensions: the max(...) kink makes the log-space surface non-smooth,
/// where a single simplex descent can legitimately stall on a corner the
/// restart backends escape — a real property of local search, not a
/// backend-agreement question.  The corpus sweep covers kMax agreement on
/// the kernels that actually use it (lulesh, stencils, convolutions).
AccessTerm random_term(FuzzRng& rng, const std::vector<int>& subset,
                       TermKind kind, int max_offset, int index) {
  AccessTerm t;
  t.array = "A" + std::to_string(index);
  t.kind = kind;
  for (std::size_t s = 0; s < subset.size(); ++s) {
    const auto v = static_cast<std::size_t>(subset[s]);
    const bool join = !t.dims.empty() && rng.range(0, 3) == 0;
    if (join) {
      t.dims.back().vars.push_back(v);
    } else {
      DimSpec d;
      d.mode = DimSpec::Mode::kProduct;
      d.vars = {v};
      d.offsets = rng.range(0, max_offset);
      t.dims.push_back(std::move(d));
    }
  }
  return t;
}

}  // namespace

OptimizationProblem random_problem(FuzzRng& rng) {
  OptimizationProblem p;
  const int n = rng.range(1, 3);
  std::vector<int> all;
  for (int v = 0; v < n; ++v) {
    p.vars.push_back("x" + std::to_string(v));
    all.push_back(v);
  }

  // Term 0 is dense over every variable: coverage by construction, so the
  // exponent LP always has a bounded optimum.
  p.sum_terms.push_back(
      random_term(rng, all, TermKind::kPlain, /*max_offset=*/2, 0));
  const int extra = rng.range(0, 2);
  for (int i = 0; i < extra; ++i) {
    const TermKind kind =
        rng.range(0, 1) == 0 ? TermKind::kPlain : TermKind::kVersioned;
    p.sum_terms.push_back(random_term(rng, random_subset(rng, n), kind,
                                      /*max_offset=*/2, i + 1));
  }
  if (rng.range(0, 2) == 0) {
    p.single_terms.push_back(random_term(rng, random_subset(rng, n),
                                         TermKind::kOutput, /*max_offset=*/0,
                                         extra + 1));
  }
  // Explicit single-monomial objective a third of the time; otherwise the
  // single-statement default prod of all vars.  One monomial keeps the
  // log-space objective linear, so the optimum is unique and backend
  // agreement is a well-posed question — a multi-monomial objective (the
  // SDG merge shape) is a convex maximization with genuinely distinct
  // local optima, where multistart finding a better corner than a single
  // start is the design, not a bug.
  if (rng.range(0, 2) == 0) {
    ObjectiveMonomial om;
    for (int v : random_subset(rng, n)) {
      om.degrees[static_cast<std::size_t>(v)] = rng.range(1, 2);
    }
    om.coeff = Rational(rng.range(1, 3));
    p.objective.push_back(std::move(om));
  }
  return p;
}

}  // namespace soap::testing
