#include "sdg/subgraph.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>

namespace soap::sdg {

namespace {

/// Hash of a sorted index subset (boost::hash_combine-style mixing).  Keys
/// the per-level dedup set; cheaper than the lexicographic compares of the
/// ordered std::set<std::vector<...>> it replaced.
struct SubsetHash {
  std::size_t operator()(const std::vector<std::size_t>& subset) const {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (std::size_t v : subset) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

void for_each_subgraph(const Sdg& sdg, std::size_t max_size,
                       std::size_t max_count, const SubgraphSink& sink) {
  const std::vector<std::string>& computed = sdg.computed_arrays();
  const std::size_t n = computed.size();
  if (n == 0 || max_size == 0 || max_count == 0) return;
  // Adjacency among computed arrays.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (sdg.adjacent(computed[i], computed[j])) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }

  std::size_t emitted = 0;
  // Emits one subset; false = stop (cap reached or the sink declined more).
  auto emit = [&](const std::vector<std::size_t>& subset) -> bool {
    std::vector<std::string> names;
    names.reserve(subset.size());
    for (std::size_t i : subset) names.push_back(computed[i]);
    ++emitted;
    if (!sink(std::move(names))) return false;
    return emitted < max_count;
  };

  // Level 1: singletons.
  std::vector<std::vector<std::size_t>> frontier;
  frontier.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    frontier.push_back({i});
    if (!emit(frontier.back())) return;
  }

  // Level k+1: grow every level-k subset by one adjacent vertex.  A size-k
  // subset can only be produced while generating level k, so deduplication
  // needs just the current level's set (cleared between levels).
  std::size_t size = 1;
  while (!frontier.empty() && size < max_size) {
    std::vector<std::vector<std::size_t>> next;
    std::unordered_set<std::vector<std::size_t>, SubsetHash> seen;
    for (const auto& subset : frontier) {
      // Candidate extensions: neighbours of any member, in ascending order.
      std::set<std::size_t> cand;
      for (std::size_t v : subset) {
        for (std::size_t w : adj[v]) cand.insert(w);
      }
      for (std::size_t w : cand) {
        if (std::binary_search(subset.begin(), subset.end(), w)) continue;
        std::vector<std::size_t> grown = subset;
        grown.insert(std::lower_bound(grown.begin(), grown.end(), w), w);
        if (!seen.insert(grown).second) continue;
        next.push_back(std::move(grown));
        if (!emit(next.back())) return;
      }
    }
    frontier = std::move(next);
    ++size;
  }
}

std::vector<std::vector<std::string>> enumerate_subgraphs(
    const Sdg& sdg, std::size_t max_size, std::size_t max_count) {
  std::vector<std::vector<std::string>> out;
  for_each_subgraph(sdg, max_size, max_count,
                    [&out](std::vector<std::string>&& names) {
                      out.push_back(std::move(names));
                      return true;
                    });
  return out;
}

}  // namespace soap::sdg
