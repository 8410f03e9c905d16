#include "pebbles/dominator.hpp"

#include <algorithm>

#include "graph/vertex_cut.hpp"

namespace soap::pebbles {

long long min_dominator_size(const Cdag& cdag,
                             const std::vector<std::size_t>& H) {
  return graph::min_vertex_cut(cdag.graph(), cdag.inputs(), H);
}

std::vector<std::size_t> minimum_set(const Cdag& cdag,
                                     const std::vector<std::size_t>& H) {
  std::vector<bool> in_h(cdag.size(), false);
  for (std::size_t v : H) in_h[v] = true;
  std::vector<std::size_t> out;
  for (std::size_t v : H) {
    bool has_child_in_h = false;
    for (std::size_t c : cdag.graph().children(v)) has_child_in_h |= in_h[c];
    if (!has_child_in_h) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace soap::pebbles
