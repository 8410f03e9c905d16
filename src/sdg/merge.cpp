#include "sdg/merge.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bounds/access_size.hpp"
#include "soap/projection.hpp"
#include "support/union_find.hpp"

namespace soap::sdg {

namespace {

/// Variable renaming as a SymId -> SymId flat map (no string traffic on the
/// per-subgraph merge path, which bench_sdg_scaling exercises heavily).
using Rename = SymMap<SymId>;

Affine rename_affine(const Affine& a, const Rename& rename) {
  Affine out(a.constant());
  for (const auto& [v, c] : a.coeffs()) {
    const SymId* unified = rename.find(v);
    out = out + c * Affine::variable(unified == nullptr ? v : *unified);
  }
  return out;
}

AccessComponent rename_component(const AccessComponent& comp,
                                 const Rename& rename) {
  AccessComponent out;
  out.index.reserve(comp.index.size());
  for (const Affine& idx : comp.index) {
    out.index.push_back(rename_affine(idx, rename));
  }
  return out;
}

// The canonical component a statement uses to address `array` (reads win,
// then the output); nullptr when the statement does not touch it.
const AccessComponent* canonical_component(const Statement& st,
                                           const std::string& array) {
  const ArrayAccess* in = st.input_for(array);
  if (in != nullptr && !in->components.empty()) return &in->components[0];
  if (st.output.array == array && !st.output.components.empty()) {
    return &st.output.components[0];
  }
  return nullptr;
}

}  // namespace

MergedSubgraph merge_subgraph(const Sdg& sdg,
                              const std::vector<std::string>& H) {
  const Program& program = sdg.program();
  MergedSubgraph out;
  out.arrays = H;
  std::set<std::string> in_h(H.begin(), H.end());

  // Member statements: writers of arrays in H, in program order.
  std::set<int> member_set;
  for (const std::string& a : H) {
    for (int w : sdg.writers(a)) member_set.insert(w);
  }
  out.members.assign(member_set.begin(), member_set.end());

  // --- iteration-variable unification -------------------------------------
  // Register (statement, var) pairs.
  std::vector<std::pair<int, std::string>> slots;
  std::map<std::pair<int, std::string>, std::size_t> slot_of;
  for (int s : out.members) {
    const Statement& st = program.statements[static_cast<std::size_t>(s)];
    for (const std::string& v : st.domain.variables()) {
      slot_of[{s, v}] = slots.size();
      slots.emplace_back(s, v);
    }
  }
  UnionFind uf(slots.size());
  // Align per-dimension single-variable subscripts of shared arrays.
  std::set<std::string> touched;
  for (int s : out.members) {
    const Statement& st = program.statements[static_cast<std::size_t>(s)];
    touched.insert(st.output.array);
    for (const ArrayAccess& in : st.inputs) touched.insert(in.array);
  }
  for (const std::string& array : touched) {
    int anchor = -1;
    const AccessComponent* anchor_comp = nullptr;
    for (int s : out.members) {
      const Statement& st = program.statements[static_cast<std::size_t>(s)];
      const AccessComponent* comp = canonical_component(st, array);
      if (comp == nullptr) continue;
      if (anchor < 0) {
        anchor = s;
        anchor_comp = comp;
        continue;
      }
      if (comp->index.size() != anchor_comp->index.size()) continue;
      for (std::size_t d = 0; d < comp->index.size(); ++d) {
        const Statement& ast =
            program.statements[static_cast<std::size_t>(anchor)];
        std::vector<std::string> va, vb;
        for (const std::string& v : anchor_comp->index[d].variables()) {
          if (ast.domain.has_variable(v)) va.push_back(v);
        }
        for (const std::string& v : comp->index[d].variables()) {
          if (st.domain.has_variable(v)) vb.push_back(v);
        }
        if (va.size() == 1 && vb.size() == 1) {
          uf.unite(slot_of.at({anchor, va[0]}), slot_of.at({s, vb[0]}));
        }
      }
    }
  }

  // --- class naming ---------------------------------------------------------
  std::map<std::size_t, std::string> class_name;
  std::set<std::string> used_names;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    std::size_t root = uf.find(i);
    if (class_name.count(root)) continue;
    std::string base = slots[root].second;
    std::string name = base;
    int suffix = 2;
    while (used_names.count(name)) {
      name = base + "_" + std::to_string(suffix++);
    }
    used_names.insert(name);
    class_name[root] = name;
  }
  std::map<int, Rename> stmt_rename;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::string& unified = class_name.at(uf.find(i));
    stmt_rename[slots[i].first].set(intern_symbol(slots[i].second),
                                    intern_symbol(unified));
    out.rename[slots[i]] = unified;
  }

  // --- merged loop nest ------------------------------------------------------
  std::set<std::string> loop_added;
  for (int s : out.members) {
    const Statement& st = program.statements[static_cast<std::size_t>(s)];
    const auto& rename = stmt_rename[s];
    for (const Loop& l : st.domain.loops()) {
      const SymId* unified = rename.find(intern_symbol(l.var));
      if (unified == nullptr) {
        throw std::logic_error("merge_subgraph: unregistered loop variable " +
                               l.var);
      }
      const std::string& name = symbol_name(*unified);
      if (!loop_added.insert(name).second) continue;
      out.merged_loops.push_back({name, rename_affine(l.lower, rename),
                                  rename_affine(l.upper, rename)});
    }
  }
  Domain merged_domain(out.merged_loops);
  out.problem.vars = merged_domain.variables();

  // --- access terms -----------------------------------------------------------
  // Arrays outside H: one shared load term over the union of their (renamed)
  // access components across all members.
  std::map<std::string, ArrayAccess> outside;
  std::map<std::string, std::vector<int>> outside_hints;
  for (int s : out.members) {
    const Statement& st = program.statements[static_cast<std::size_t>(s)];
    const auto& rename = stmt_rename[s];
    for (const ArrayAccess& in : st.inputs) {
      if (in_h.count(in.array)) continue;
      ArrayAccess& slot = outside[in.array];
      slot.array = in.array;
      for (const AccessComponent& c : in.components) {
        AccessComponent rc = rename_component(c, rename);
        if (std::find(slot.components.begin(), slot.components.end(), rc) ==
            slot.components.end()) {
          slot.components.push_back(std::move(rc));
        }
      }
      auto hint = st.max_overlap_dims.find(in.array);
      if (hint != st.max_overlap_dims.end()) {
        outside_hints[in.array] = hint->second;
      }
    }
  }
  if (!outside.empty()) {
    Statement synthetic;
    synthetic.name = "St_H_inputs";
    synthetic.domain = merged_domain;
    synthetic.output.array = "__subgraph_out";
    for (auto& [name, acc] : outside) synthetic.inputs.push_back(acc);
    for (auto& [name, dims] : outside_hints) {
      synthetic.max_overlap_dims[name] = dims;
    }
    Statement split = split_disjoint_accesses(synthetic);
    bounds::StatementAnalysis analysis = bounds::analyze_statement(split);
    for (auto& t : analysis.input_terms) {
      out.problem.sum_terms.push_back(std::move(t));
    }
  }

  // Arrays inside H: only their input-output boundary term (Corollary 1 /
  // version dimension); vertices computed inside the tile are reused or
  // recomputed for free.  Arrays in H never read by a member contribute a
  // minimum-set (output) constraint instead.
  for (const std::string& array : H) {
    ArrayAccess reads;
    reads.array = array;
    const AccessComponent* out_comp = nullptr;
    AccessComponent out_renamed;
    std::vector<int> hint_dims;
    for (int s : out.members) {
      const Statement& st = program.statements[static_cast<std::size_t>(s)];
      const auto& rename = stmt_rename[s];
      const ArrayAccess* in = st.input_for(array);
      if (in != nullptr) {
        for (const AccessComponent& c : in->components) {
          AccessComponent rc = rename_component(c, rename);
          if (std::find(reads.components.begin(), reads.components.end(),
                        rc) == reads.components.end()) {
            reads.components.push_back(std::move(rc));
          }
        }
        auto hint = st.max_overlap_dims.find(array);
        if (hint != st.max_overlap_dims.end()) hint_dims = hint->second;
      }
      if (st.output.array == array && !st.output.components.empty()) {
        out_renamed = rename_component(st.output.components[0], rename);
        out_comp = &out_renamed;
      }
    }
    Statement synthetic;
    synthetic.name = "St_H_" + array;
    synthetic.domain = merged_domain;
    synthetic.output.array = array;
    if (out_comp != nullptr) synthetic.output.components = {*out_comp};
    if (!hint_dims.empty()) synthetic.max_overlap_dims[array] = hint_dims;
    bool self_read = false;
    bool writer_reduction = false;
    for (int s : out.members) {
      const Statement& st = program.statements[static_cast<std::size_t>(s)];
      if (st.output.array != array) continue;
      if (st.reads(array)) self_read = true;
      // Reduction loops of the writer: variables of its nest that do not
      // appear in the output subscript.  With a reduction, the final version
      // of an element exists only once the whole reduction range ran, so a
      // partial tile cannot hand it to readers for free.
      std::set<std::string> in_access;
      if (!st.output.components.empty()) {
        for (const Affine& idx : st.output.components[0].index) {
          for (const std::string& v : idx.variables()) in_access.insert(v);
        }
      }
      for (const std::string& v : st.domain.variables()) {
        if (!in_access.count(v)) writer_reduction = true;
      }
    }
    if (!reads.components.empty()) {
      synthetic.inputs.push_back(reads);
      Statement split = split_disjoint_accesses(synthetic);
      bounds::StatementAnalysis analysis = bounds::analyze_statement(split);
      const std::size_t array_dims = reads.dim();
      for (auto& t : analysis.input_terms) {
        // Values the in-subgraph writer produces inside the tile are reused
        // from fast memory for free (cf. Figure 2: "reusing outputs from St1
        // to compute E").  The term is charged only when the readers can
        // reach versions from outside the tile: the writer itself re-reading
        // its previous version, a reduction remainder, or offset (halo)
        // accesses.
        bool offsets_in_array_dims = false;
        for (std::size_t d = 0; d < std::min(array_dims, t.dims.size()); ++d) {
          offsets_in_array_dims |= t.dims[d].offsets > 0;
        }
        if (!self_read && !writer_reduction && !offsets_in_array_dims &&
            t.array == array) {
          continue;
        }
        if (t.kind == bounds::TermKind::kVersioned && !self_read) continue;
        out.problem.sum_terms.push_back(std::move(t));
      }
      for (auto& t : analysis.output_terms) {
        out.problem.single_terms.push_back(std::move(t));
      }
    } else {
      bounds::StatementAnalysis analysis = bounds::analyze_statement(synthetic);
      for (auto& t : analysis.output_terms) {
        out.problem.single_terms.push_back(std::move(t));
      }
    }
  }

  // --- objective: one tile-volume monomial per member statement ---------------
  const std::vector<std::string>& tile_vars = out.problem.vars;
  for (int s : out.members) {
    const Statement& st = program.statements[static_cast<std::size_t>(s)];
    const auto& rename = stmt_rename[s];
    bounds::ObjectiveMonomial mono;
    for (const std::string& v : st.domain.variables()) {
      const SymId* unified = rename.find(intern_symbol(v));
      if (unified == nullptr) {
        throw std::logic_error("merge_subgraph: unregistered variable " + v);
      }
      const auto pos = static_cast<std::size_t>(
          std::find(tile_vars.begin(), tile_vars.end(),
                    symbol_name(*unified)) -
          tile_vars.begin());
      mono.degrees[pos] += 1;
    }
    bool merged = false;
    for (auto& existing : out.problem.objective) {
      if (existing.degrees == mono.degrees) {
        existing.coeff += mono.coeff;
        merged = true;
        break;
      }
    }
    if (!merged) out.problem.objective.push_back(std::move(mono));
  }
  return out;
}

std::string MergedSubgraph::str() const {
  std::ostringstream os;
  os << "H = {";
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (i) os << ", ";
    os << arrays[i];
  }
  os << "}, loops:";
  for (const Loop& l : merged_loops) os << " " << l.var;
  os << ", terms:";
  for (const auto& t : problem.sum_terms) os << " " << t.array;
  return os.str();
}

}  // namespace soap::sdg
