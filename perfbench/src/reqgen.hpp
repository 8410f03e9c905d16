// Seeded request stream for the serve_mixed workload.
//
// The stream is a pure function of the seed and the kernel registry:
//   * a hot set, primed before timing: `kernel NAME` for every registry
//     kernel plus the `analyze` body of every miss-pool kernel, its arrays
//     renamed with a seeded prefix;
//   * timed cycles: each cycle holds every miss-pool kernel exactly once,
//     its arrays renamed with a prefix no other request uses (a fresh
//     digest, so a cache miss), and kHitsPerMiss hits drawn from the hot
//     set, shuffled.  Every cycle therefore has the same mix of miss work,
//     which keeps throughput comparable across seeds.
// The miss pool is the DSL-defined kernels whose recorded options the
// `analyze` request can express (no cold bound, default optimizer).
// Renaming prepends a common prefix to every array name, which keeps the
// arrays' relative order and therefore the derived bound.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kernels/registry.hpp"

namespace perfbench {

constexpr std::size_t kHitsPerMiss = 19;  ///< 5% misses

/// splitmix64: the stream's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

struct Request {
  std::string id;
  std::string text;      ///< the protocol lines sent to analyzed
  bool miss = false;     ///< expected cache outcome
  std::string kernel;    ///< registry kernel the program came from
  /// Accepted renderings of that kernel's expected_bound: as recorded and
  /// expanded (the form the analyzer renders a sum in).
  std::vector<std::string> expected;
  std::string body;      ///< analyze body ("" for kernel requests)
  std::size_t cycle = 0;
};

struct Stream {
  std::vector<Request> prime;
  std::vector<Request> timed;
  std::size_t cycle_length = 0;
};

/// Kernels whose DSL source can be sent as an `analyze` request with the
/// same bound as the registry entry.
bool miss_eligible(const soap::kernels::KernelEntry& entry);

/// `source` with every array reference NAME[ renamed to PREFIX NAME[.
std::string rename_arrays(const std::string& source, const std::string& prefix);

/// The full stream for `seed` with `cycles` timed cycles.
Stream generate_stream(std::uint64_t seed, std::size_t cycles);

}  // namespace perfbench
