#include "service/analyze.hpp"

#include <utility>

namespace soap::service {

namespace {

/// Internal sentinel for "multi_statement_bound returned nullopt" — the
/// derive callback must produce a bound or throw, and a program with
/// unlimited reuse produces neither a bound nor an error.  Caught (and for
/// coalesced waiters, re-caught) inside this translation unit only.
struct NoNontrivialBound {};

}  // namespace

ProgramAnalysis analyze_program(BoundCache* cache, const Program& program,
                                const sdg::SdgOptions& options) {
  ProgramAnalysis out;
  out.key = make_cache_key(program, options);
  if (cache == nullptr) {
    out.bound = sdg::multi_statement_bound(program, options);
    return out;
  }
  try {
    CachedBound cached = cache->get_or_derive(out.key, [&program, &options] {
      std::optional<sdg::MultiStatementBound> bound =
          sdg::multi_statement_bound(program, options);
      if (!bound) throw NoNontrivialBound{};
      return *std::move(bound);
    });
    out.bound = std::move(cached.bound);
    out.outcome = cached.outcome;
  } catch (const NoNontrivialBound&) {
    // Not cached (there is no bound to store): every request for such a
    // program re-derives, exactly like the uncached path.
    out.bound = std::nullopt;
    out.outcome = CacheOutcome::kMiss;
  }
  return out;
}

kernels::DeriveFn cached_derive(BoundCache& cache, CacheOutcome* outcome,
                                CacheKey* key) {
  return [&cache, outcome, key](const Program& program,
                                const sdg::SdgOptions& options) {
    ProgramAnalysis analysis = analyze_program(&cache, program, options);
    if (outcome != nullptr) *outcome = *analysis.outcome;
    if (key != nullptr) *key = analysis.key;
    return std::move(analysis.bound);
  };
}

}  // namespace soap::service
