// Cache-routed analysis (docs/SERVING.md).
//
// One program entry point, cached or not, plus the derive step that routes
// the kernels-layer runners (kernels::analyze_kernel_checked and
// kernels::analyze_corpus_resilient) through a BoundCache.  The miss path
// runs the identical derivation the uncached path would, and a hit returns
// the interned result of that derivation, so cache-on vs cache-off output
// is byte-identical (enforced by tests/test_bound_cache.cpp).
#pragma once

#include <optional>

#include "kernels/table2.hpp"
#include "service/bound_cache.hpp"
#include "service/cache_key.hpp"

namespace soap::service {

/// One program analysis: the serving primitive behind the `analyzed`
/// protocol and `analyze_tool`'s program mode.  `bound` is nullopt when the
/// program has no non-trivial bound (never cached — it carries no
/// MultiStatementBound to store); `outcome` is nullopt when no cache was
/// used.
struct ProgramAnalysis {
  CacheKey key;
  std::optional<sdg::MultiStatementBound> bound;
  std::optional<CacheOutcome> outcome;
};

/// Analyzes `program` under `options`, through `cache` when it is non-null.
/// Exceptions from the derivation (cancellation, invalid input) propagate
/// exactly as from sdg::multi_statement_bound.
ProgramAnalysis analyze_program(BoundCache* cache, const Program& program,
                                const sdg::SdgOptions& options);

/// The derive step of the kernels-layer runners routed through `cache`.
/// When `outcome` (`key`) is non-null it receives how the cache satisfied
/// the last derivation (its cache key); use them for a single kernel, not a
/// concurrent batch.
kernels::DeriveFn cached_derive(BoundCache& cache,
                                CacheOutcome* outcome = nullptr,
                                CacheKey* key = nullptr);

}  // namespace soap::service
