#include "service/bound_cache.hpp"

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <utility>

#include "service/serialize.hpp"
#include "support/cancel.hpp"

namespace soap::service {

namespace {

// First line of every persistence file; a file with any other first line is
// treated as a stale format and ignored wholesale (the cache then starts
// cold and rewrites nothing — append-only files are never truncated here).
constexpr const char* kPersistHeader = "soap-bound-cache v1";

}  // namespace

const char* cache_outcome_name(CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kCoalesced:
      return "coalesced";
  }
  return "unknown";
}

/// One in-flight derivation: the leader publishes result-or-error and
/// notifies; followers wait.  Lives on the heap via shared_ptr so a
/// follower that outlives the cache's flight-map entry still sees the
/// publication.
struct BoundCache::Flight {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::optional<sdg::MultiStatementBound> result;
  std::exception_ptr error;
};

BoundCache::BoundCache(BoundCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.persist_path.empty()) {
    load_persisted();
    // Open for append after loading; write the header iff the file is new
    // or empty so restarts keep appending to the same warm file.
    std::ifstream probe(options_.persist_path);
    const bool empty = !probe || probe.peek() == std::ifstream::traits_type::eof();
    probe.close();
    persist_out_ = std::make_unique<std::ofstream>(
        options_.persist_path, std::ios::app);
    if (empty && *persist_out_) {
      *persist_out_ << kPersistHeader << '\n';
      persist_out_->flush();
    }
  }
}

BoundCache::~BoundCache() = default;

CachedBound BoundCache::get_or_derive(
    const CacheKey& key,
    const std::function<sdg::MultiStatementBound()>& derive) {
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return {it->second->bound, CacheOutcome::kHit};
    }
    if (auto it = flights_.find(key); it != flights_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_.emplace(key, flight);
      leader = true;
    }
  }

  if (!leader) {
    {
      std::unique_lock<std::mutex> lock(flight->mutex);
      flight->cv.wait(lock, [&flight] { return flight->done; });
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++coalesced_;
    }
    if (flight->error) std::rethrow_exception(flight->error);
    return {*flight->result, CacheOutcome::kCoalesced};
  }

  // Leader: derive outside every lock so distinct keys never serialize.
  std::optional<sdg::MultiStatementBound> bound;
  std::exception_ptr error;
  try {
    bound = derive();
  } catch (...) {
    error = std::current_exception();
  }
  // Store before retiring the flight: a request landing in between sees
  // the index entry (hit) rather than becoming a redundant leader.  A
  // degraded bound depends on wall-clock/budget state the key excludes,
  // so it is served to the coalesced waiters but never stored.
  if (!error && !bound->degraded) store(key, *bound, /*persist=*/true);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    flights_.erase(key);
    ++misses_;
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->result = bound;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return {*std::move(bound), CacheOutcome::kMiss};
}

std::optional<sdg::MultiStatementBound> BoundCache::lookup(
    const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->bound;
}

void BoundCache::add_alias(const support::Digest& alias, const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end() || aliases_.count(alias) != 0) return;
  std::vector<support::Digest>& names = it->second->aliases;
  if (names.size() >= kMaxAliases) return;
  names.push_back(alias);
  aliases_.emplace(alias, it->second);
}

std::optional<AliasHit> BoundCache::lookup_alias(const support::Digest& alias) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = aliases_.find(alias);
  if (it == aliases_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return AliasHit{it->second->key, it->second->bound};
}

void BoundCache::put(const CacheKey& key,
                     const sdg::MultiStatementBound& bound) {
  if (bound.degraded) return;
  store(key, bound, /*persist=*/true);
}

void BoundCache::store(const CacheKey& key,
                       const sdg::MultiStatementBound& bound, bool persist) {
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(key); it != index_.end()) {
      // First store wins — a duplicate is necessarily the identical bound
      // (the key is a pure function of what derives it).
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{key, bound, {}});
      index_.emplace(key, lru_.begin());
      inserted = true;
      while (lru_.size() > std::max<std::size_t>(1, options_.max_entries)) {
        evict_lru();
      }
    }
    // Live-node budget: dropping LRU entries releases their Expr
    // references, letting the weakly-held intern table reclaim nodes.
    // Bounded by the cache size, so a budget below the process floor
    // degenerates to "cache nothing", never to a spin.
    while (options_.max_live_nodes != 0 && !lru_.empty() &&
           support::live_node_count() > options_.max_live_nodes) {
      evict_lru();
    }
  }
  if (inserted && persist && persist_out_ != nullptr) {
    append_persisted(key, bound);
  }
}

void BoundCache::evict_lru() {
  for (const support::Digest& alias : lru_.back().aliases) {
    aliases_.erase(alias);
  }
  index_.erase(lru_.back().key);
  lru_.pop_back();
  ++evicted_;
}

void BoundCache::load_persisted() {
  std::ifstream in(options_.persist_path);
  if (!in) return;
  std::string line;
  if (!std::getline(in, line) || line != kPersistHeader) return;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;  // torn/garbage line
    const std::optional<support::Digest> digest =
        support::Digest::from_hex(std::string_view(line).substr(0, tab));
    if (!digest) continue;
    const std::optional<sdg::MultiStatementBound> bound =
        deserialize_bound(std::string_view(line).substr(tab + 1));
    if (!bound) continue;
    store(CacheKey{*digest}, *bound, /*persist=*/false);
    ++persisted_loaded_;
  }
}

void BoundCache::append_persisted(const CacheKey& key,
                                  const sdg::MultiStatementBound& bound) {
  const std::string record = serialize_bound(bound);
  std::lock_guard<std::mutex> lock(persist_mutex_);
  if (!*persist_out_) return;  // disk trouble: serve from memory only
  *persist_out_ << key.digest.hex() << '\t' << record << '\n';
  persist_out_->flush();
}

BoundCacheStats BoundCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BoundCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.coalesced = coalesced_;
  s.evicted = evicted_;
  s.persisted_loaded = persisted_loaded_;
  s.entries = lru_.size();
  return s;
}

std::size_t BoundCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace soap::service
