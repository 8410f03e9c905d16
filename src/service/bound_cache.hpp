// The memoized bound cache behind `analyzed` and `analyze_tool --cache`
// (docs/SERVING.md).
//
// An in-memory LRU keyed on service::CacheKey (stable content
// digests, cache_key.hpp) holding complete MultiStatementBound results.
// Three properties carry the serving story:
//
//   * Single-flight coalescing.  Concurrent requests for the same key
//     block on ONE derivation instead of duplicating it: the first caller
//     becomes the leader and derives outside every lock; followers wait on
//     the flight's condition variable and wake to the leader's result (or
//     its rethrown exception).  The stress suite asserts a key is never
//     derived twice concurrently.
//
//   * Bit-identical results.  A hit returns the stored bound, whose Exprs
//     are the very interned nodes the derivation produced (hash-consing
//     makes structural equality pointer identity), so cache-on vs
//     cache-off output is byte-identical.  Degraded bounds (deadline or
//     budget trips, docs/ROBUSTNESS.md) are *never stored* — they depend
//     on wall-clock/budget state the key deliberately excludes.
//
//   * Bounded footprint.  One cache-wide LRU enforces max_entries as a
//     hard cap, and an optional max_live_nodes budget is polled against
//     the live-node gauge (support::live_node_count — the sharded intern
//     table's live count): after an insertion pushes the gauge past the
//     budget, least-recently-used entries are dropped so their Expr
//     references release interned nodes back to the weakly-held table.
//     One mutex guards the LRU, its index, the in-flight map and the
//     counters; derivations run outside it.
//
// Request aliases.  `analyzed` also keys an entry by a digest of the
// request text that produced it (service/server.hpp), so a repeated
// request is answered from the cache without parsing or lowering its
// program.  Each entry keeps at most kMaxAliases aliases, and an entry's
// aliases leave the index with it on eviction.
//
// Optional persistence: an append-only file of `digest<TAB>record` lines
// (service/serialize.hpp) written on every store and loaded at
// construction, so a restarted server starts warm.  Torn or stale lines
// are skipped, never fatal.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sdg/multi_statement.hpp"
#include "service/cache_key.hpp"

namespace soap::service {

struct BoundCacheOptions {
  /// Cached-entry capacity (at least 1).
  std::size_t max_entries = 4096;
  /// Live interned-node budget (0 = unlimited): after a store pushes
  /// support::live_node_count() past this, LRU entries are evicted until
  /// the gauge drops back or the cache is empty.
  std::size_t max_live_nodes = 0;
  /// Append-only persistence file ("" = in-memory only): loaded at
  /// construction, appended on every fresh store.
  std::string persist_path;
};

/// How a get_or_derive call was satisfied.
enum class CacheOutcome : std::uint8_t {
  kHit,        ///< already cached
  kMiss,       ///< this caller derived it
  kCoalesced,  ///< waited on a concurrent derivation of the same key
};

[[nodiscard]] const char* cache_outcome_name(CacheOutcome outcome) noexcept;

struct BoundCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t evicted = 0;
  std::uint64_t persisted_loaded = 0;  ///< entries loaded at construction
  std::size_t entries = 0;             ///< currently cached

  [[nodiscard]] std::uint64_t requests() const {
    return hits + misses + coalesced;
  }
  /// Served-without-deriving fraction of all requests (hits + coalesced).
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t r = requests();
    return r == 0 ? 0.0 : static_cast<double>(hits + coalesced) /
                              static_cast<double>(r);
  }
};

struct CachedBound {
  sdg::MultiStatementBound bound;
  CacheOutcome outcome = CacheOutcome::kMiss;
};

/// An entry found through a request alias.
struct AliasHit {
  CacheKey key;
  sdg::MultiStatementBound bound;
};

class BoundCache {
 public:
  explicit BoundCache(BoundCacheOptions options = {});
  ~BoundCache();

  BoundCache(const BoundCache&) = delete;
  BoundCache& operator=(const BoundCache&) = delete;

  /// The serving entry point.  Returns the cached bound for `key`, or runs
  /// `derive` (at most once across all concurrent callers of this key) and
  /// caches its result.  `derive` runs outside every cache lock, so
  /// derivations of different keys proceed fully in parallel; its
  /// exceptions propagate to every caller of the in-flight key.  Degraded
  /// results are returned but not stored.
  CachedBound get_or_derive(
      const CacheKey& key,
      const std::function<sdg::MultiStatementBound()>& derive);

  /// Read-only probe (counts a hit on success, nothing on absence).
  std::optional<sdg::MultiStatementBound> lookup(const CacheKey& key);

  /// Unconditional store (used by the persistence loader and tests);
  /// degraded bounds are ignored.
  void put(const CacheKey& key, const sdg::MultiStatementBound& bound);

  /// Most aliases one entry keeps.
  static constexpr std::size_t kMaxAliases = 8;

  /// Names the cached entry of `key` by `alias` as well.  A no-op when
  /// `key` is not cached, `alias` is already known, or the entry holds
  /// kMaxAliases aliases.
  void add_alias(const support::Digest& alias, const CacheKey& key);

  /// Read-only probe by alias (counts a hit on success, nothing on
  /// absence — an unknown alias or one whose entry was evicted).
  std::optional<AliasHit> lookup_alias(const support::Digest& alias);

  [[nodiscard]] BoundCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    CacheKey key;
    sdg::MultiStatementBound bound;
    std::vector<support::Digest> aliases;
  };
  struct Flight;

  /// Store at the LRU front, run evictions, optionally persist.
  void store(const CacheKey& key, const sdg::MultiStatementBound& bound,
             bool persist);
  /// Drops the least-recently-used entry and its aliases.  Caller holds
  /// `mutex_`.
  void evict_lru();
  void load_persisted();
  void append_persisted(const CacheKey& key,
                        const sdg::MultiStatementBound& bound);

  BoundCacheOptions options_;
  mutable std::mutex mutex_;
  /// front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<CacheKey, std::list<Entry>::iterator> index_;
  std::unordered_map<support::Digest, std::list<Entry>::iterator> aliases_;
  std::unordered_map<CacheKey, std::shared_ptr<Flight>> flights_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t evicted_ = 0;
  std::mutex persist_mutex_;
  std::unique_ptr<std::ofstream> persist_out_;
  std::uint64_t persisted_loaded_ = 0;
};

}  // namespace soap::service
