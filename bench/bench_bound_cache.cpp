// Serving-path benchmarks (docs/SERVING.md): what the memoized bound
// cache buys.
//
//   BM_KernelServe/{cold,warm}/<kernel>  — one kernel request against a
//     fresh cache (full derivation) vs a primed cache (pure hit).  The
//     committed baseline demonstrates the headline gap: a warm hit is
//     orders of magnitude below the cold derivation.
//   BM_CorpusServe/{cold,warm}           — a 10-kernel corpus sweep
//     through analyze_corpus_resilient with the cached derive step
//     (service::cached_derive), cold vs fully warm.
//   BM_HitRateSweep/<pct>                — synthetic request stream at a
//     fixed hit percentage against a cheap derive, with the achieved
//     hit_rate and p50/p99 per-request latency reported as counters.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/table2.hpp"
#include "sdg/multi_statement.hpp"
#include "service/analyze.hpp"
#include "service/bound_cache.hpp"
#include "service/cache_key.hpp"
#include "support/digest.hpp"
#include "symbolic/expr.hpp"

namespace {

using soap::service::BoundCache;
using soap::service::CacheKey;

const char* const kCorpus[] = {"gemm",   "cholesky", "jacobi2d", "heat3d",
                               "fdtd2d", "atax",     "gemver",   "conv",
                               "bert_encoder", "lulesh"};

std::vector<const soap::kernels::KernelEntry*> corpus_entries() {
  std::vector<const soap::kernels::KernelEntry*> entries;
  for (const char* name : kCorpus) {
    entries.push_back(&soap::kernels::kernel_by_name(name));
  }
  return entries;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted,
                         std::uint64_t p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      std::min<std::uint64_t>(sorted.size() - 1, sorted.size() * p / 100));
  return sorted[idx];
}

// One kernel request against a fresh cache per iteration: every request
// pays the full derivation (the miss path the cache exists to amortize).
void BM_KernelCold(benchmark::State& state, const std::string& name) {
  const auto& entry = soap::kernels::kernel_by_name(name);
  for (auto _ : state) {
    BoundCache cache;
    auto outcome = soap::kernels::analyze_kernel_checked(
        entry, 1, {}, {}, soap::service::cached_derive(cache));
    benchmark::DoNotOptimize(outcome);
  }
}

// Same request against a primed cache: every iteration is a hit returning
// the interned bound.  p50/p99 per-request latency become counters so the
// baseline records the serving tail, not only the mean.
void BM_KernelWarm(benchmark::State& state, const std::string& name) {
  const auto& entry = soap::kernels::kernel_by_name(name);
  BoundCache cache;
  const soap::kernels::DeriveFn derive = soap::service::cached_derive(cache);
  // Prime the cache.
  (void)soap::kernels::analyze_kernel_checked(entry, 1, {}, {}, derive);
  std::vector<std::uint64_t> latencies_ns;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto outcome =
        soap::kernels::analyze_kernel_checked(entry, 1, {}, {}, derive);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(outcome);
    latencies_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(latencies_ns.begin(), latencies_ns.end());
  state.counters["p50_us"] =
      static_cast<double>(percentile(latencies_ns, 50)) / 1000.0;
  state.counters["p99_us"] =
      static_cast<double>(percentile(latencies_ns, 99)) / 1000.0;
}

void BM_CorpusCold(benchmark::State& state) {
  const auto entries = corpus_entries();
  for (auto _ : state) {
    BoundCache cache;
    auto report = soap::kernels::analyze_corpus_resilient(
        entries, {}, soap::service::cached_derive(cache));
    benchmark::DoNotOptimize(report);
  }
}

void BM_CorpusWarm(benchmark::State& state) {
  const auto entries = corpus_entries();
  BoundCache cache;
  const soap::kernels::DeriveFn derive = soap::service::cached_derive(cache);
  // Prime the cache.
  (void)soap::kernels::analyze_corpus_resilient(entries, {}, derive);
  for (auto _ : state) {
    auto report = soap::kernels::analyze_corpus_resilient(entries, {}, derive);
    benchmark::DoNotOptimize(report);
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}

CacheKey synthetic_key(std::uint64_t i) {
  return CacheKey{
      soap::support::Digest{i * 0x9e3779b97f4a7c15ULL + 0x5eed, i + 1}};
}

soap::sdg::MultiStatementBound synthetic_bound() {
  const soap::sym::Expr n = soap::sym::Expr::symbol("N");
  const soap::sym::Expr s = soap::sym::Expr::symbol("S");
  soap::sdg::MultiStatementBound bound;
  bound.Q_leading =
      soap::sym::Expr::constant(2) * n * n * n *
      soap::sym::pow(s, soap::Rational(-1, 2));
  bound.Q_sdg = bound.Q_leading;
  return bound;
}

// A deterministic request stream where range(0) percent of requests go to
// an already-cached hot set and the rest derive fresh keys (a cheap
// synthetic derive, so the measured cost is the cache machinery itself).
void BM_HitRateSweep(benchmark::State& state) {
  const std::uint64_t hit_pct = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kHot = 64;
  BoundCache cache;
  const soap::sdg::MultiStatementBound bound = synthetic_bound();
  for (std::uint64_t i = 0; i < kHot; ++i) {
    cache.put(synthetic_key(i), bound);
  }
  std::uint64_t request = 0;
  std::uint64_t fresh = kHot;
  std::vector<std::uint64_t> latencies_ns;
  for (auto _ : state) {
    const bool hit = (request % 100) < hit_pct;
    const CacheKey key =
        hit ? synthetic_key(request % kHot) : synthetic_key(fresh++);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = cache.get_or_derive(key, [&] { return bound; });
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result);
    latencies_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    ++request;
  }
  std::sort(latencies_ns.begin(), latencies_ns.end());
  state.counters["hit_rate"] = cache.stats().hit_rate();
  state.counters["p50_us"] =
      static_cast<double>(percentile(latencies_ns, 50)) / 1000.0;
  state.counters["p99_us"] =
      static_cast<double>(percentile(latencies_ns, 99)) / 1000.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : {"gemm", "atax", "bert_encoder"}) {
    benchmark::RegisterBenchmark(
        ("BM_KernelServe/cold/" + std::string(name)).c_str(), BM_KernelCold,
        std::string(name));
    benchmark::RegisterBenchmark(
        ("BM_KernelServe/warm/" + std::string(name)).c_str(), BM_KernelWarm,
        std::string(name));
  }
  benchmark::RegisterBenchmark("BM_CorpusServe/cold", BM_CorpusCold);
  benchmark::RegisterBenchmark("BM_CorpusServe/warm", BM_CorpusWarm);
  benchmark::RegisterBenchmark("BM_HitRateSweep", BM_HitRateSweep)
      ->Arg(0)
      ->Arg(50)
      ->Arg(90)
      ->Arg(100);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
