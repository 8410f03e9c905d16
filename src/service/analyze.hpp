// Cache-routed analysis entry points (docs/SERVING.md).
//
// These mirror the kernels-layer entry points exactly — same outcomes,
// same messages, same slot-per-kernel determinism — with every derivation
// routed through a BoundCache.  The miss path runs the identical
// derivation the uncached path would, and a hit returns the interned
// result of that derivation, so cache-on vs cache-off output is
// byte-identical (enforced by tests/test_bound_cache.cpp).
#pragma once

#include <optional>

#include "kernels/table2.hpp"
#include "service/bound_cache.hpp"

namespace soap::service {

/// Cached program analysis: the serving primitive behind the `analyzed`
/// protocol and `analyze_tool --cache`.  `bound` is nullopt when the
/// program has no non-trivial bound (never cached — it carries no
/// MultiStatementBound to store).
struct ProgramAnalysis {
  CacheKey key;
  std::optional<sdg::MultiStatementBound> bound;
  CacheOutcome outcome = CacheOutcome::kMiss;
};

/// Analyzes `program` under `options` through `cache`.  Exceptions from
/// the derivation (cancellation, invalid input, non-degradable budget
/// trips) propagate exactly as from sdg::multi_statement_bound.
ProgramAnalysis analyze_program_cached(BoundCache& cache,
                                       const Program& program,
                                       const sdg::SdgOptions& options);

/// analyze_kernel_checked with the derivation routed through `cache`;
/// outcome fields (status, message, degraded, bound) are identical to the
/// uncached call.  `cache_outcome`, when non-null, reports how the cache
/// satisfied the request.
kernels::KernelOutcome analyze_kernel_cached(
    BoundCache& cache, const kernels::KernelEntry& entry,
    std::size_t threads = 1, support::ExecutorRef executor = {},
    const support::StopCriteria& stop = {},
    CacheOutcome* cache_outcome = nullptr);

/// analyze_corpus_resilient with every kernel routed through `cache`:
/// same slot-per-kernel determinism, same report.
kernels::CorpusReport analyze_corpus_cached(
    BoundCache& cache, const std::vector<const kernels::KernelEntry*>& kernels,
    const kernels::CorpusOptions& options = {});

}  // namespace soap::service
