// Dominator and minimum sets of concrete subcomputations (Section 2.2).
#pragma once

#include <vector>

#include "pebbles/cdag.hpp"

namespace soap::pebbles {

/// |Dom_min(H)|: size of a minimum vertex set intersecting every path from a
/// CDAG input to a vertex of H (computed exactly as a min vertex cut).
long long min_dominator_size(const Cdag& cdag,
                             const std::vector<std::size_t>& H);

/// Min(H): vertices of H with no child inside H.
std::vector<std::size_t> minimum_set(const Cdag& cdag,
                                     const std::vector<std::size_t>& H);

}  // namespace soap::pebbles
