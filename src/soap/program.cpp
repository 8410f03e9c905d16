#include "soap/program.hpp"

#include <algorithm>
#include <set>

namespace soap {

namespace {

bool dim_has_max_hint(const Statement& st, const std::string& array, int dim) {
  auto it = st.max_overlap_dims.find(array);
  if (it == st.max_overlap_dims.end()) return false;
  return std::find(it->second.begin(), it->second.end(), dim) !=
         it->second.end();
}

void check_access(const Statement& st, const ArrayAccess& acc,
                  std::vector<SoapViolation>* out) {
  if (!simple_overlap_translations(acc)) {
    out->push_back({st.name, acc.array,
                    "access-function components are not a simple overlap "
                    "(Section 5.1 disjoint-split projection applies)"});
  }
  if (acc.components.empty()) return;
  const AccessComponent& base = acc.components[0];
  std::set<std::string> used_vars;
  for (std::size_t d = 0; d < base.index.size(); ++d) {
    const Affine& idx = base.index[d];
    std::vector<std::string> vars;
    for (const std::string& v : idx.variables()) {
      if (st.domain.has_variable(v)) vars.push_back(v);
    }
    for (const std::string& v : vars) {
      if (!used_vars.insert(v).second) {
        out->push_back({st.name, acc.array,
                        "iteration variable '" + v +
                            "' indexes several dimensions (non-injective)"});
      }
      if (idx.coeff(intern_symbol(v)).abs() != Rational(1)) {
        out->push_back({st.name, acc.array,
                        "non-unit stride on '" + v +
                            "' (Section 5.3 overlap bound applies)"});
      }
    }
    if (vars.size() > 1 && !dim_has_max_hint(st, acc.array,
                                             static_cast<int>(d))) {
      out->push_back({st.name, acc.array,
                      "dimension " + std::to_string(d) +
                          " indexed by several iteration variables without a "
                          "Section 5.3 overlap hint"});
    }
  }
}

}  // namespace

std::vector<SoapViolation> check_soap(const Program& program) {
  std::vector<SoapViolation> out;
  for (const Statement& st : program.statements) {
    for (const ArrayAccess& in : st.inputs) check_access(st, in, &out);
    check_access(st, st.output, &out);
    // Property (7): input/output joint simple overlap.
    const ArrayAccess* self = st.input_for(st.output.array);
    if (self != nullptr) {
      ArrayAccess joint = *self;
      for (const AccessComponent& c : st.output.components)
        joint.components.push_back(c);
      if (!simple_overlap_translations(joint)) {
        out.push_back({st.name, st.output.array,
                       "input and output accesses of the updated array are "
                       "not jointly a simple overlap"});
      }
    }
  }
  return out;
}

}  // namespace soap
