// BoundCache semantics (docs/SERVING.md): hit/miss/coalesce accounting,
// single-flight coalescing under thread stress (run under TSan via the
// `parallel` label), LRU and node-budget eviction, persistence round-trips,
// and the headline determinism contract — cached and uncached analysis are
// bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bounds/opt/types.hpp"
#include "frontend/lower.hpp"
#include "kernels/table2.hpp"
#include "sdg/multi_statement.hpp"
#include "service/analyze.hpp"
#include "service/cache_key.hpp"
#include "service/bound_cache.hpp"
#include "service/serialize.hpp"
#include "support/cancel.hpp"
#include "symbolic/expr.hpp"

namespace soap {
namespace {

using service::BoundCache;
using service::BoundCacheOptions;
using service::BoundCacheStats;
using service::CachedBound;
using service::CacheKey;
using service::CacheOutcome;
using support::Digest;

CacheKey key_of(std::uint64_t i) {
  return CacheKey{Digest{i * 0x9e3779b97f4a7c15ULL + 0x1234, i + 1}};
}

sdg::MultiStatementBound make_bound(std::uint64_t i) {
  const sym::Expr n = sym::Expr::symbol("N");
  const sym::Expr s = sym::Expr::symbol("S");
  sdg::MultiStatementBound bound;
  bound.Q_leading = sym::Expr::constant(Rational(static_cast<long long>(
                        i + 1))) *
                    n * n * sym::pow(s, Rational(-1, 2));
  bound.Q_sdg = bound.Q_leading;
  bound.Q_cold = n;
  bound.subgraphs_evaluated = i;
  sdg::ArrayBound a;
  a.array = "C" + std::to_string(i);
  a.cdag_size = n * n;
  a.rho = sym::sqrt(s);
  a.rho_value = 0.5 + static_cast<double>(i);
  a.best_subgraph = {"St1"};
  bound.per_array.push_back(a);
  return bound;
}

// --- Serialization ----------------------------------------------------------

TEST(Serialize, ExprRoundTripIsPointerIdentical) {
  const sym::Expr n = sym::Expr::symbol("N");
  const sym::Expr s = sym::Expr::symbol("S");
  const sym::Expr exprs[] = {
      sym::Expr::constant(Rational(-7, 3)),
      n,
      sym::Expr::constant(2) * n * n * n * sym::pow(s, Rational(-1, 2)),
      sym::min({n * n, s + n}),
      sym::max({n, sym::sqrt(s)}) + sym::Expr::constant(1),
  };
  for (const sym::Expr& e : exprs) {
    const std::string text = service::serialize_expr(e);
    const auto back = service::deserialize_expr(text);
    ASSERT_TRUE(back.has_value()) << text;
    // Hash-consing makes equality pointer identity: the round trip rebuilds
    // the very node it started from.
    EXPECT_EQ(*back, e) << text;
  }
}

TEST(Serialize, RejectsGarbage) {
  for (const char* text :
       {"", "(", ")", "(c)", "(c x)", "(s)", "(q 1)", "(^ (s N))",
        "(+ (c 1)", "b1", "b1 nonsense", "(c 1/0)"}) {
    EXPECT_FALSE(service::deserialize_expr(text).has_value()) << text;
  }
  EXPECT_FALSE(service::deserialize_bound("b1 trailing junk").has_value());
  EXPECT_FALSE(service::deserialize_bound("b2 (c 1) (c 1) (c 1) 0 0")
                   .has_value());
}

TEST(Serialize, BoundRoundTripIsExact) {
  const sdg::MultiStatementBound bound = make_bound(3);
  const std::string record = service::serialize_bound(bound);
  EXPECT_EQ(record.find('\n'), std::string::npos);
  const auto back = service::deserialize_bound(record);
  ASSERT_TRUE(back.has_value()) << record;
  EXPECT_EQ(back->Q_leading, bound.Q_leading);
  EXPECT_EQ(back->Q_sdg, bound.Q_sdg);
  EXPECT_EQ(back->Q_cold, bound.Q_cold);
  EXPECT_EQ(back->subgraphs_evaluated, bound.subgraphs_evaluated);
  EXPECT_FALSE(back->degraded);
  ASSERT_EQ(back->per_array.size(), bound.per_array.size());
  EXPECT_EQ(back->per_array[0].array, bound.per_array[0].array);
  EXPECT_EQ(back->per_array[0].cdag_size, bound.per_array[0].cdag_size);
  EXPECT_EQ(back->per_array[0].rho, bound.per_array[0].rho);
  // Bit-exact double round trip (IEEE-754 bits in hex).
  EXPECT_EQ(back->per_array[0].rho_value, bound.per_array[0].rho_value);
  EXPECT_EQ(back->per_array[0].best_subgraph, bound.per_array[0].best_subgraph);
}

// --- Cache semantics --------------------------------------------------------

TEST(BoundCacheTest, HitMissAccounting) {
  BoundCache cache;
  std::size_t derived = 0;
  const auto derive = [&derived] { return make_bound(derived++); };
  const CachedBound first = cache.get_or_derive(key_of(1), derive);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);
  const CachedBound second = cache.get_or_derive(key_of(1), derive);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  EXPECT_EQ(derived, 1u);
  EXPECT_EQ(second.bound.Q_leading, first.bound.Q_leading);
  const BoundCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.requests(), 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(BoundCacheTest, DegradedBoundsAreServedButNeverStored) {
  BoundCache cache;
  sdg::MultiStatementBound degraded = make_bound(0);
  degraded.degraded = true;
  degraded.degraded_reason = support::StatusCode::kDeadlineExceeded;
  const CachedBound out =
      cache.get_or_derive(key_of(9), [&degraded] { return degraded; });
  EXPECT_EQ(out.outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(out.bound.degraded);
  EXPECT_EQ(cache.size(), 0u);
  cache.put(key_of(9), degraded);
  EXPECT_EQ(cache.size(), 0u);
  // The next request re-derives (and a clean result then sticks).
  const CachedBound clean =
      cache.get_or_derive(key_of(9), [] { return make_bound(0); });
  EXPECT_EQ(clean.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BoundCacheTest, ErrorsPropagateAndAreNotCached) {
  BoundCache cache;
  const auto fail = []() -> sdg::MultiStatementBound {
    throw support::AnalysisError(support::StatusCode::kCancelled, "stop");
  };
  EXPECT_THROW(cache.get_or_derive(key_of(4), fail), support::AnalysisError);
  EXPECT_EQ(cache.size(), 0u);
  const CachedBound ok =
      cache.get_or_derive(key_of(4), [] { return make_bound(4); });
  EXPECT_EQ(ok.outcome, CacheOutcome::kMiss);
}

TEST(BoundCacheTest, LruEvictionAtCapacity) {
  BoundCacheOptions options;
  options.max_entries = 2;
  BoundCache cache(options);
  cache.put(key_of(1), make_bound(1));
  cache.put(key_of(2), make_bound(2));
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  cache.put(key_of(3), make_bound(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
}

TEST(BoundCacheTest, NodeBudgetEvictsDownToEmpty) {
  BoundCacheOptions options;
  // Far below the process floor: every store must immediately evict back
  // down, degenerating to "cache nothing" (never a spin, never a throw).
  options.max_live_nodes = 1;
  BoundCache cache(options);
  cache.put(key_of(1), make_bound(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GE(cache.stats().evicted, 1u);
}

TEST(BoundCacheTest, MaxEntriesIsAHardCapAcrossKeys) {
  // The capacity bounds the whole cache, whatever the keys' digests.
  BoundCacheOptions options;
  options.max_entries = 2;
  BoundCache cache(options);
  for (std::uint64_t i = 1; i <= 8; ++i) cache.put(key_of(i), make_bound(i));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evicted, 6u);
  EXPECT_TRUE(cache.lookup(key_of(7)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(8)).has_value());
}

TEST(BoundCacheTest, NodeBudgetEvictsTheLeastRecentlyUsedFirst) {
  // Pin the nodes every make_bound shares (N, S, N^2, sqrt(S), ...), so
  // each further bound adds only its own constant and product nodes.
  const sdg::MultiStatementBound pinned = make_bound(0);
  BoundCacheOptions options;
  options.max_live_nodes = support::live_node_count() + 3;
  BoundCache cache(options);
  cache.put(key_of(1), make_bound(1001));
  ASSERT_EQ(cache.size(), 1u);
  // Key 2 pushes the gauge past the budget; dropping key 1, the least
  // recently used entry, brings it back.
  cache.put(key_of(2), make_bound(1002));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(2)).has_value());
}

Digest alias_of(std::uint64_t i) { return Digest{i + 77, i * 31 + 5}; }

TEST(BoundCacheAliases, AnAliasNamesItsEntryAndCountsAHit) {
  BoundCache cache;
  EXPECT_FALSE(cache.lookup_alias(alias_of(1)).has_value());
  cache.add_alias(alias_of(1), key_of(1));  // not cached: ignored
  cache.put(key_of(1), make_bound(1));
  EXPECT_FALSE(cache.lookup_alias(alias_of(1)).has_value());
  cache.add_alias(alias_of(1), key_of(1));
  const auto hit = cache.lookup_alias(alias_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->key, key_of(1));
  EXPECT_EQ(hit->bound.Q_leading, make_bound(1).Q_leading);
  const BoundCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(BoundCacheAliases, EvictionDropsTheEntrysAliases) {
  BoundCacheOptions options;
  options.max_entries = 1;
  BoundCache cache(options);
  cache.put(key_of(1), make_bound(1));
  cache.add_alias(alias_of(1), key_of(1));
  cache.add_alias(alias_of(2), key_of(1));
  cache.put(key_of(2), make_bound(2));  // evicts key 1
  EXPECT_FALSE(cache.lookup_alias(alias_of(1)).has_value());
  EXPECT_FALSE(cache.lookup_alias(alias_of(2)).has_value());
  // Stored again, the entry starts without aliases.
  cache.put(key_of(1), make_bound(1));
  EXPECT_FALSE(cache.lookup_alias(alias_of(1)).has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(BoundCacheAliases, AnEntryKeepsAtMostTheFixedNumberOfAliases) {
  BoundCache cache;
  cache.put(key_of(1), make_bound(1));
  const std::uint64_t n = BoundCache::kMaxAliases + 3;
  for (std::uint64_t i = 0; i < n; ++i) cache.add_alias(alias_of(i), key_of(1));
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(cache.lookup_alias(alias_of(i)).has_value(),
              i < BoundCache::kMaxAliases)
        << i;
  }
}

// --- Single-flight stress (TSan target) -------------------------------------

TEST(BoundCacheStress, SingleFlightNeverDerivesAKeyTwiceConcurrently) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 5;
  constexpr std::size_t kRounds = 40;
  BoundCache cache;
  std::atomic<std::uint64_t> derivations{0};
  std::vector<std::atomic<int>> in_flight(kKeys);
  std::atomic<bool> overlap{false};
  std::atomic<std::uint64_t> requests{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::uint64_t k = (t + round) % kKeys;
        const CachedBound out = cache.get_or_derive(key_of(k), [&, k] {
          if (in_flight[k].fetch_add(1) != 0) overlap = true;
          sdg::MultiStatementBound bound = make_bound(k);
          if (in_flight[k].fetch_sub(1) != 1) overlap = true;
          derivations.fetch_add(1);
          return bound;
        });
        requests.fetch_add(1);
        // Every caller sees the canonical bound for its key, whichever
        // path served it.
        EXPECT_EQ(out.bound.subgraphs_evaluated, k);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(overlap.load()) << "two concurrent derivations of one key";
  // Once a key is stored it is never derived again, so the only possible
  // derivations are the kKeys leaders (no eviction at this scale).
  EXPECT_EQ(derivations.load(), kKeys);
  const BoundCacheStats stats = cache.stats();
  EXPECT_EQ(stats.requests(), requests.load());
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits + stats.coalesced, requests.load() - kKeys);
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.evicted, 0u);
}

// --- Persistence ------------------------------------------------------------

TEST(BoundCachePersist, RoundTripsAcrossInstances) {
  const std::string path = testing::TempDir() + "/bound_cache_persist.txt";
  std::remove(path.c_str());
  BoundCacheOptions options;
  options.persist_path = path;
  const sdg::MultiStatementBound bound = make_bound(7);
  {
    BoundCache cache(options);
    EXPECT_EQ(cache.stats().persisted_loaded, 0u);
    cache.get_or_derive(key_of(7), [&bound] { return bound; });
  }
  {
    BoundCache warm(options);
    EXPECT_EQ(warm.stats().persisted_loaded, 1u);
    const auto hit = warm.lookup(key_of(7));
    ASSERT_TRUE(hit.has_value());
    // The persisted record rebuilds through the canonicalizing
    // constructors, so the reloaded Exprs are the identical interned nodes.
    EXPECT_EQ(hit->Q_leading, bound.Q_leading);
    EXPECT_EQ(hit->per_array[0].rho_value, bound.per_array[0].rho_value);
    // A hit loaded from disk must not be re-appended: a third instance
    // still loads exactly one record.
  }
  {
    BoundCache again(options);
    EXPECT_EQ(again.stats().persisted_loaded, 1u);
  }
  std::remove(path.c_str());
}

TEST(BoundCachePersist, TornAndStaleLinesAreSkipped) {
  const std::string path = testing::TempDir() + "/bound_cache_torn.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("soap-bound-cache v1\n", f);
    const std::string good =
        key_of(1).digest.hex() + "\t" + service::serialize_bound(make_bound(1));
    std::fprintf(f, "%s\n", good.c_str());
    std::fputs("no-tab-line\n", f);
    std::fputs("nothex\tb1 (c 1) (c 1) (c 1) 0 0\n", f);
    const std::string torn =
        key_of(2).digest.hex() + "\tb1 (* (c 2) (^ (s N";  // torn mid-write
    std::fprintf(f, "%s", torn.c_str());
    std::fclose(f);
  }
  BoundCacheOptions options;
  options.persist_path = path;
  BoundCache cache(options);
  EXPECT_EQ(cache.stats().persisted_loaded, 1u);
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  std::remove(path.c_str());
}

TEST(BoundCachePersist, StaleHeaderStartsCold) {
  const std::string path = testing::TempDir() + "/bound_cache_stale.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("soap-bound-cache v999\nwhatever\n", f);
    std::fclose(f);
  }
  BoundCacheOptions options;
  options.persist_path = path;
  BoundCache cache(options);
  EXPECT_EQ(cache.stats().persisted_loaded, 0u);
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

// --- Cache key sensitivity --------------------------------------------------

TEST(CacheKeyTest, OptimizerBackendIsPartOfTheKey) {
  // Bounds derived under different numeric backends may legitimately
  // differ, so they must never alias in the cache: the backend is keyed,
  // while thread count (excluded by the determinism contract) is not.
  const Program program = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  sdg::SdgOptions nelder;
  nelder.optimizer = bounds::opt::BackendKind::kNelderMead;
  sdg::SdgOptions multistart = nelder;
  multistart.optimizer = bounds::opt::BackendKind::kMultistart;
  sdg::SdgOptions subplex = nelder;
  subplex.optimizer = bounds::opt::BackendKind::kSubplex;
  const CacheKey k_nelder = service::make_cache_key(program, nelder);
  const CacheKey k_multi = service::make_cache_key(program, multistart);
  const CacheKey k_subplex = service::make_cache_key(program, subplex);
  EXPECT_NE(k_nelder, k_multi);
  EXPECT_NE(k_nelder, k_subplex);
  EXPECT_NE(k_multi, k_subplex);
  // Deterministic: the same options rebuild the same key...
  EXPECT_EQ(k_nelder, service::make_cache_key(program, nelder));
  // ...and excluded fields (threads) still do not perturb it.
  sdg::SdgOptions threaded = multistart;
  threaded.threads = 8;
  EXPECT_EQ(k_multi, service::make_cache_key(program, threaded));
}

// --- Cached vs uncached parity (the determinism contract) -------------------

TEST(CachedAnalysis, KernelResultsAreBitIdenticalCacheOnAndOff) {
  BoundCache cache;
  const kernels::KernelEntry& entry = kernels::kernel_by_name("gemm");
  const kernels::KernelOutcome plain =
      kernels::analyze_kernel_checked(entry);
  CacheOutcome outcome = CacheOutcome::kHit;
  const kernels::DeriveFn derive = service::cached_derive(cache, &outcome);
  const kernels::KernelOutcome cold =
      kernels::analyze_kernel_checked(entry, 1, {}, {}, derive);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  const kernels::KernelOutcome warm =
      kernels::analyze_kernel_checked(entry, 1, {}, {}, derive);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  for (const kernels::KernelOutcome* out : {&cold, &warm}) {
    EXPECT_EQ(out->status, plain.status);
    EXPECT_EQ(out->degraded, plain.degraded);
    ASSERT_TRUE(out->bound.has_value());
    // Pointer-identical interned node, not merely equal text.
    EXPECT_EQ(*out->bound, *plain.bound);
  }
}

TEST(CachedAnalysis, NoBoundProgramsMatchUncachedOutcomeAndStayUncached) {
  // The empty program is the canonical no-bound case: there is nothing to
  // account, so multi_statement_bound yields nullopt rather than a bound.
  const Program program;
  ASSERT_FALSE(sdg::multi_statement_bound(program, {}).has_value());
  BoundCache cache;
  for (int round = 0; round < 2; ++round) {
    const service::ProgramAnalysis analysis =
        service::analyze_program(&cache, program, {});
    EXPECT_FALSE(analysis.bound.has_value());
    EXPECT_EQ(analysis.outcome, CacheOutcome::kMiss);
    EXPECT_EQ(cache.size(), 0u);
  }
}

TEST(CachedAnalysis, CorpusReportMatchesResilientCorpus) {
  // A small two-family slice keeps this suite fast; the full-corpus parity
  // gate lives in CI (analyze_tool --corpus --json with and without
  // --cache compared byte-for-byte).
  std::vector<const kernels::KernelEntry*> subset;
  for (const char* name : {"gemm", "atax", "mvt", "softmax"}) {
    subset.push_back(&kernels::kernel_by_name(name));
  }
  const kernels::CorpusReport plain =
      kernels::analyze_corpus_resilient(subset, {});
  BoundCache cache;
  const kernels::DeriveFn derive = service::cached_derive(cache);
  const kernels::CorpusReport cold =
      kernels::analyze_corpus_resilient(subset, {}, derive);
  // Second pass: everything served from cache, still identical.
  const kernels::CorpusReport warm =
      kernels::analyze_corpus_resilient(subset, {}, derive);
  const BoundCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, subset.size());
  for (const kernels::CorpusReport* report : {&cold, &warm}) {
    ASSERT_EQ(report->kernels.size(), plain.kernels.size());
    for (std::size_t i = 0; i < plain.kernels.size(); ++i) {
      EXPECT_EQ(report->kernels[i].status, plain.kernels[i].status);
      ASSERT_EQ(report->kernels[i].bound.has_value(),
                plain.kernels[i].bound.has_value());
      if (plain.kernels[i].bound) {
        EXPECT_EQ(*report->kernels[i].bound, *plain.kernels[i].bound);
      }
    }
  }
}

}  // namespace
}  // namespace soap
