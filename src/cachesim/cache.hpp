// Fully-associative cache simulators (LRU and Belady/offline-optimal) used
// to measure the actual I/O of generated schedules against the analytic
// lower bounds.  The cache models the paper's fast memory: S words, loads on
// read misses, write-backs of dirty lines on eviction and at the end.
// Addresses may be any 64-bit values; both simulators run on flat tables
// indexed by address, after an order-preserving compaction when an address
// is not below the trace length (docs/ATTAINMENT.md).
#pragma once

#include <cstdint>
#include <vector>

#include "schedule/trace.hpp"

namespace soap::cachesim {

struct SimResult {
  long long loads = 0;       ///< read misses + write-allocate misses
  long long stores = 0;      ///< dirty write-backs (incl. final flush)
  [[nodiscard]] long long io() const { return loads + stores; }
};

/// LRU simulation of a trace with capacity S words.
SimResult simulate_lru(const std::vector<schedule::Access>& trace,
                       std::size_t S);

/// Belady (furthest-next-use) simulation: offline-optimal replacement.
SimResult simulate_belady(const std::vector<schedule::Access>& trace,
                          std::size_t S);

}  // namespace soap::cachesim
