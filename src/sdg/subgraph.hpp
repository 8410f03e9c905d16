// Enumeration of SDG subgraphs (Section 6.1): connected subsets of computed
// arrays, each of which induces a "subgraph SOAP statement" whose intensity
// bounds the subcomputations spanning those arrays.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sdg/sdg.hpp"

namespace soap::sdg {

/// Receives one emitted subset (ownership transferred, canonical generation
/// order).  Return false to stop the enumeration early — the producer
/// returns without generating further subsets.
using SubgraphSink = std::function<bool(std::vector<std::string>&&)>;

/// Streaming enumeration of the connected subsets of the computed arrays:
/// each subset is handed to `sink` the moment it is generated, so a
/// consumer can collect, filter, or stop early without materializing the
/// whole enumeration.  Subsets
/// are emitted in canonical order (by cardinality, then generation order
/// within a level: level k+1 grows every level-k subset by one adjacent
/// vertex, deduplicated); generation stops exactly at `max_count` emitted
/// subsets or when `sink` returns false.
void for_each_subgraph(const Sdg& sdg, std::size_t max_size,
                       std::size_t max_count, const SubgraphSink& sink);

/// All connected subsets of the computed arrays with size <= max_size
/// (connectivity per Sdg::adjacent, which includes shared-input adjacency),
/// materialized in the same canonical order the streaming producer emits.
/// The enumeration is capped at max_count subsets (largest programs in the
/// corpus stay far below it; the paper notes its approach scales to ~35
/// statements).
std::vector<std::vector<std::string>> enumerate_subgraphs(
    const Sdg& sdg, std::size_t max_size, std::size_t max_count = 100000);

}  // namespace soap::sdg
