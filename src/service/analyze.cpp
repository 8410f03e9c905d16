#include "service/analyze.hpp"

#include <utility>

#include "support/parallel.hpp"

namespace soap::service {

namespace {

/// Internal sentinel for "multi_statement_bound returned nullopt" — the
/// derive callback must produce a bound or throw, and a program with
/// unlimited reuse produces neither a bound nor an error.  Caught (and for
/// coalesced waiters, re-caught) inside this translation unit only.
struct NoNontrivialBound {};

}  // namespace

ProgramAnalysis analyze_program_cached(BoundCache& cache,
                                       const Program& program,
                                       const sdg::SdgOptions& options) {
  ProgramAnalysis out;
  out.key = make_cache_key(program, options);
  try {
    CachedBound cached = cache.get_or_derive(out.key, [&program, &options] {
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

kernels::KernelOutcome analyze_kernel_cached(
    BoundCache& cache, const kernels::KernelEntry& entry, std::size_t threads,
    support::ExecutorRef executor, const support::StopCriteria& stop,
    CacheOutcome* cache_outcome) {
  kernels::KernelOutcome out;
  out.kernel = entry.name;
  out.family = entry.family;
  try {
    Program program = entry.build();
    sdg::SdgOptions options = entry.options;
    options.threads = threads;
    options.executor = executor;
    options.stop = stop;
    ProgramAnalysis analysis = analyze_program_cached(cache, program, options);
    if (cache_outcome != nullptr) *cache_outcome = analysis.outcome;
    if (!analysis.bound) {
      out.status = support::StatusCode::kInvalidInput;
      out.message = "no non-trivial bound (unlimited reuse)";
      return out;
    }
    out.bound = analysis.bound->Q_leading;
    out.degraded = analysis.bound->degraded;
    out.status = analysis.bound->degraded ? analysis.bound->degraded_reason
                                          : support::StatusCode::kOk;
  } catch (const support::AnalysisError& error) {
    out.status = error.code();
    out.message = error.what();
  } catch (const std::exception& error) {
    out.status = support::StatusCode::kInternalError;
    out.message = error.what();
  }
  return out;
}

kernels::CorpusReport analyze_corpus_cached(
    BoundCache& cache, const std::vector<const kernels::KernelEntry*>& kernels,
    const kernels::CorpusOptions& options) {
  support::ParallelOptions par;
  par.threads = options.threads;
  par.executor = options.executor;
  // Same shape as analyze_corpus_resilient: no par.cancel (each kernel
  // observes the token itself, keeping partial results), slot-per-kernel
  // determinism.  Identical kernels in the input coalesce onto one
  // derivation instead of racing.
  kernels::CorpusReport report;
  report.kernels = support::parallel_map<kernels::KernelOutcome>(
      kernels.size(), par, [&cache, &kernels, &options](std::size_t i) {
        return analyze_kernel_cached(cache, *kernels[i], options.threads,
                                     options.executor, options.stop);
      });
  return report;
}

}  // namespace soap::service
