// The `analyzed` request loop (docs/SERVING.md): DSL programs in,
// cache-served bounds out, over any istream/ostream pair (stdin/stdout in
// the tool's default mode, a connected socket under --listen).
//
// Protocol — newline-delimited requests, one single-line JSON reply each,
// tagged with the request id (client-chosen via id=..., else assigned
// sequentially):
//
//   analyze [k=v ...]        analyze the DSL program on the following
//   <program lines>          lines; body ends at a line reading `end`.
//   end                      keys: id, timeout-ms, node-budget,
//                            max-subgraph-size, max-subgraphs
//   kernel NAME [k=v ...]    analyze a registered kernel with its recorded
//                            configuration (keys: id, timeout-ms,
//                            node-budget)
//   stats [k=v ...]          drain in-flight requests, then report cache
//                            counters, hit rate, and service p50/p99
//                            latency (keys: id)
//   cancel ID                request cancellation of in-flight request ID
//   quit                     drain and exit cleanly (EOF does the same)
//
// Requests run concurrently (up to ServerOptions::request_threads in
// flight) over the configured executor; replies are serialized onto the
// output stream whole-line-at-a-time in completion order.  Every
// derivation routes through the shared BoundCache, so identical programs
// — across requests, clients, and (with persistence) restarts — are
// served at cache speed, and concurrent duplicates coalesce onto one
// derivation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>

#include "service/bound_cache.hpp"
#include "support/executor.hpp"

namespace soap::service {

struct ServerOptions {
  BoundCacheOptions cache;
  /// Max requests in flight at once (1 = serve serially in the reader
  /// thread; the protocol stays valid either way).
  std::size_t request_threads = 4;
  /// Subgraph-shard threads per analysis (SdgOptions::threads).
  std::size_t analysis_threads = 1;
  /// Executor for both request dispatch and the analyses' inner shards.
  support::ExecutorRef executor;
  /// Default per-request wall-clock deadline in ms (0 = unlimited);
  /// overridable per request with timeout-ms=N.
  std::size_t default_timeout_ms = 0;
  /// Default per-request live-node budget (0 = unlimited); overridable per
  /// request with node-budget=N.
  std::size_t default_node_budget = 0;
};

/// Fixed-memory latency histogram behind `stats` p50/p99: log-linear
/// buckets, exact below 8 us and 8 sub-buckets per power of two above, so
/// a reported percentile (its bucket's upper bound) is at most 12.5% above
/// the exact sample.
class LatencyHistogram {
 public:
  void record(std::uint64_t us);
  /// Upper bound of the bucket holding the sample of rank
  /// min(n-1, n*p/100) in sorted order; 0 when nothing was recorded.
  [[nodiscard]] std::uint64_t percentile(int p) const;

 private:
  static constexpr std::size_t kSubBuckets = 8;
  static std::size_t bucket(std::uint64_t us);
  static std::uint64_t upper_bound(std::size_t bucket);

  /// Buckets 0..7 hold 0..7 exactly; then 8 per power of two up to 2^64.
  std::array<std::uint64_t, kSubBuckets * 62> counts_{};
  std::uint64_t total_ = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Reads requests from `in` until `quit` or EOF, writing one JSON reply
  /// line per request to `out`.  Returns the process exit code (0 on a
  /// clean quit/EOF).  One serve loop at a time per Server; the cache
  /// persists across serve calls.
  int serve(std::istream& in, std::ostream& out);

  [[nodiscard]] BoundCache& cache() { return *cache_; }

 private:
  struct Impl;

  ServerOptions options_;
  std::unique_ptr<BoundCache> cache_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace soap::service
