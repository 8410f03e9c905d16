#include "bounds/access_size.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace soap::bounds {

std::vector<std::vector<std::size_t>> AccessTerm::lp_monomials() const {
  // Per-dimension variable-set choices: a kProduct dimension contributes all
  // of its variables, a kMax dimension contributes one variable at a time
  // (the constraint must hold for every choice since max(x,y) >= each).
  std::vector<std::vector<std::vector<std::size_t>>> choices;
  for (const DimSpec& d : dims) {
    if (d.vars.empty()) {
      choices.push_back({{}});
    } else if (d.mode == DimSpec::Mode::kMax) {
      std::vector<std::vector<std::size_t>> c;
      for (std::size_t v : d.vars) c.push_back({v});
      choices.push_back(std::move(c));
    } else {
      choices.push_back({d.vars});
    }
  }
  // Which dimension subsets form dominant monomials?
  //   kPlain / kVersioned / kOutput: the full product.
  //   kInputOutput: prod(e) - prod(e - c) has no full-product term; the
  //   dominant monomials drop exactly one offset dimension each.
  std::vector<std::vector<std::size_t>> dim_subsets;
  const std::size_t n = dims.size();
  if (kind == TermKind::kInputOutput) {
    for (std::size_t skip = 0; skip < n; ++skip) {
      if (dims[skip].offsets <= 0) continue;
      std::vector<std::size_t> subset;
      for (std::size_t i = 0; i < n; ++i)
        if (i != skip) subset.push_back(i);
      dim_subsets.push_back(std::move(subset));
    }
    if (dim_subsets.empty()) {
      throw std::logic_error(
          "AccessTerm: input-output term without any offset dimension "
          "(the version-dimension projection should have added one)");
    }
  } else {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    dim_subsets.push_back(std::move(all));
  }
  // Expand the kMax choices for every subset.
  std::vector<std::vector<std::size_t>> out;
  for (const auto& subset : dim_subsets) {
    std::vector<std::set<std::size_t>> partial = {{}};
    for (std::size_t i : subset) {
      std::vector<std::set<std::size_t>> next;
      for (const auto& p : partial) {
        for (const auto& choice : choices[i]) {
          std::set<std::size_t> q = p;
          q.insert(choice.begin(), choice.end());
          next.push_back(std::move(q));
        }
      }
      partial = std::move(next);
    }
    for (const auto& p : partial) out.emplace_back(p.begin(), p.end());
  }
  // Deduplicate.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool AccessTerm::has_max_dims() const {
  return std::any_of(dims.begin(), dims.end(), [](const DimSpec& d) {
    return d.mode == DimSpec::Mode::kMax && d.vars.size() > 1;
  });
}

std::vector<AccessTerm::SignedMonomial> AccessTerm::signed_monomials() const {
  if (has_max_dims())
    throw std::logic_error(
        "AccessTerm::signed_monomials: kMax dimensions not expandable");
  const std::size_t n = dims.size();
  if (n > 20) throw std::logic_error("signed_monomials: too many dims");
  auto dim_monomial = [&](std::size_t i) {
    MonomialDegrees m;
    for (std::size_t v : dims[i].vars) m[v] += 1;
    return m;
  };
  std::vector<SignedMonomial> out;
  auto add = [&out](MonomialDegrees degrees, Rational coeff) {
    for (SignedMonomial& m : out) {
      if (m.degrees == degrees) {
        m.coeff += coeff;
        return;
      }
    }
    out.push_back({std::move(degrees), coeff});
  };
  auto full_product = [&]() {
    MonomialDegrees m;
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& [v, d] : dim_monomial(i)) m[v] += d;
    }
    return m;
  };
  // difference() = prod(e) - prod(e - c), expanded by inclusion-exclusion.
  auto add_difference = [&]() {
    for (std::size_t mask = 1; mask < (1u << n); ++mask) {
      Rational coeff = 1;
      MonomialDegrees degs;
      int bits = 0;
      bool zero = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          if (dims[i].offsets == 0) {
            zero = true;
            break;
          }
          coeff *= Rational(dims[i].offsets);
          ++bits;
        } else {
          for (const auto& [v, d] : dim_monomial(i)) degs[v] += d;
        }
      }
      if (zero) continue;
      add(std::move(degs), bits % 2 == 1 ? coeff : -coeff);
    }
  };
  bool any_offset = std::any_of(dims.begin(), dims.end(), [](const DimSpec& d) {
    return d.offsets > 0;
  });
  switch (kind) {
    case TermKind::kPlain:
      add(full_product(), Rational(1));
      if (any_offset) add_difference();
      break;
    case TermKind::kInputOutput:
      add_difference();
      break;
    case TermKind::kVersioned:
    case TermKind::kOutput:
      add(full_product(), Rational(1));
      break;
  }
  // Drop cancelled monomials.
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const SignedMonomial& m) {
                             return m.coeff.is_zero();
                           }),
            out.end());
  return out;
}

namespace {

DimSpec::Mode dim_mode(const Statement& st, const std::string& array,
                       int dim) {
  auto it = st.max_overlap_dims.find(array);
  if (it == st.max_overlap_dims.end()) return DimSpec::Mode::kProduct;
  bool listed = std::find(it->second.begin(), it->second.end(), dim) !=
                it->second.end();
  return listed ? DimSpec::Mode::kMax : DimSpec::Mode::kProduct;
}

std::vector<DimSpec> dims_from_access(const Statement& st,
                                      const std::vector<std::string>& vars,
                                      const ArrayAccess& acc,
                                      const std::vector<long long>& offsets) {
  std::vector<DimSpec> out;
  const AccessComponent& base = acc.components[0];
  // A variable indexing several dimensions (diagonal accesses like A[k,k])
  // contributes its tile extent only once: the number of distinct index
  // tuples is the product over *distinct* variables.  Symbols outside the
  // domain (parameters) have no tile.
  std::set<std::size_t> seen;
  for (std::size_t d = 0; d < base.index.size(); ++d) {
    DimSpec spec;
    spec.mode = dim_mode(st, acc.array, static_cast<int>(d));
    for (const std::string& v : base.index[d].variables()) {
      const auto pos = static_cast<std::size_t>(
          std::find(vars.begin(), vars.end(), v) - vars.begin());
      if (pos < vars.size() && seen.insert(pos).second) {
        spec.vars.push_back(pos);
      }
    }
    spec.offsets = d < offsets.size() ? offsets[d] : 0;
    out.push_back(std::move(spec));
  }
  return out;
}

// Positions of the tile variables not appearing anywhere in the access.
std::vector<std::size_t> free_variables(const std::vector<std::string>& vars,
                                        const ArrayAccess& acc) {
  std::set<std::string> used;
  for (const AccessComponent& c : acc.components) {
    for (const Affine& idx : c.index) {
      for (const std::string& v : idx.variables()) used.insert(v);
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (!used.count(vars[i])) out.push_back(i);
  }
  return out;
}

}  // namespace

StatementAnalysis analyze_statement(const Statement& st) {
  StatementAnalysis out;
  out.tile_vars = st.domain.variables();
  const std::vector<std::string>& vars = out.tile_vars;

  for (const ArrayAccess& acc : st.inputs) {
    AccessTerm term;
    term.array = acc.array;
    const bool is_io = acc.array == st.output.array;

    if (!is_io) {
      auto trans = simple_overlap_translations(acc);
      if (trans) {
        term.kind = TermKind::kPlain;
        term.dims =
            dims_from_access(st, vars, acc, access_offset_counts(*trans));
      } else {
        // Conservative fallback: a single component already needs the full
        // product (Lemma 2), which is a valid lower bound on |A|.
        term.kind = TermKind::kPlain;
        term.dims = dims_from_access(st, vars, acc, {});
      }
      out.input_terms.push_back(std::move(term));
      continue;
    }

    // Input-output overlap (Section 4.3 + Section 5.2).
    ArrayAccess joint = acc;
    for (const AccessComponent& c : st.output.components)
      joint.components.push_back(c);
    auto trans = simple_overlap_translations(joint);
    if (!trans) {
      term.kind = TermKind::kPlain;
      term.dims = dims_from_access(st, vars, acc, {});
      out.input_terms.push_back(std::move(term));
      continue;
    }
    term.kind = TermKind::kInputOutput;
    term.dims = dims_from_access(st, vars, joint, access_offset_counts(*trans));

    // Section 5.2: identical input and output access functions require the
    // version dimension (offset 1, extent = the free iteration variables).
    bool identical = false;
    for (const AccessComponent& in : acc.components) {
      for (const AccessComponent& o : st.output.components) {
        if (in == o) identical = true;
      }
    }
    if (identical) {
      // Section 5.2: only meaningful when some iteration variable is free of
      // the access (it then versions the element).  With no free variables
      // each element has a single in-tile version and the identical read is
      // internal.
      std::vector<std::size_t> free_vars = free_variables(vars, joint);
      if (!free_vars.empty()) {
        DimSpec version;
        version.mode = DimSpec::Mode::kProduct;
        version.vars = std::move(free_vars);
        version.offsets = 1;
        term.dims.push_back(std::move(version));
      }
    }
    // An input-output term with no offset dimension at all counts the plain
    // first-version loads (the subtracted product would cancel exactly).
    bool any_offset = std::any_of(
        term.dims.begin(), term.dims.end(),
        [](const DimSpec& d) { return d.offsets > 0; });
    if (!any_offset) term.kind = TermKind::kVersioned;
    out.input_terms.push_back(std::move(term));
  }

  // Pure output (not read back): minimum-set constraint.
  if (!st.updates_output() && !st.output.components.empty()) {
    AccessTerm term;
    term.array = st.output.array;
    term.kind = TermKind::kOutput;
    term.dims = dims_from_access(st, vars, st.output, {});
    out.output_terms.push_back(std::move(term));
  }
  return out;
}

}  // namespace soap::bounds
