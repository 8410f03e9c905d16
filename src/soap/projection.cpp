#include "soap/projection.hpp"

#include <vector>

namespace soap {

namespace {

// True when the two components differ by a constant translation vector.
bool constant_offset(const AccessComponent& a, const AccessComponent& b) {
  if (a.index.size() != b.index.size()) return false;
  for (std::size_t d = 0; d < a.index.size(); ++d) {
    if (!(a.index[d] - b.index[d]).is_constant()) return false;
  }
  return true;
}

}  // namespace

Statement split_disjoint_accesses(const Statement& st) {
  Statement out = st;
  out.inputs.clear();
  for (const ArrayAccess& acc : st.inputs) {
    // Greedy grouping into constant-offset classes (transitive, since
    // constant-offset differences are closed under subtraction).
    std::vector<ArrayAccess> groups;
    for (const AccessComponent& comp : acc.components) {
      bool placed = false;
      for (ArrayAccess& g : groups) {
        if (constant_offset(comp, g.components[0])) {
          g.components.push_back(comp);
          placed = true;
          break;
        }
      }
      if (!placed) {
        ArrayAccess g;
        g.array = acc.array;
        g.components = {comp};
        groups.push_back(std::move(g));
      }
    }
    if (groups.size() == 1) {
      out.inputs.push_back(acc);
      continue;
    }
    // Several disjoint groups: pseudo-arrays A@0, A@1, ...  The group whose
    // base component is constant-offset from the output access keeps a name
    // that still matches the output array, so the input-output analysis
    // (Corollary 1 / version dimension) continues to see the update.
    int tag = 0;
    for (ArrayAccess& g : groups) {
      bool matches_output =
          st.output.array == acc.array && !st.output.components.empty() &&
          constant_offset(g.components[0], st.output.components[0]);
      if (!matches_output) {
        g.array = acc.array + "@" + std::to_string(tag++);
      }
      // Propagate max-overlap hints to the split arrays.
      auto hint = st.max_overlap_dims.find(acc.array);
      if (hint != st.max_overlap_dims.end()) {
        out.max_overlap_dims[g.array] = hint->second;
      }
      out.inputs.push_back(std::move(g));
    }
  }
  return out;
}

bool needs_version_dimension(const Statement& st) {
  const ArrayAccess* self = st.input_for(st.output.array);
  if (self == nullptr) return false;
  for (const AccessComponent& in : self->components) {
    for (const AccessComponent& outc : st.output.components) {
      if (in == outc) return true;
    }
  }
  return false;
}

}  // namespace soap
