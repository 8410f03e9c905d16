#include "service/server.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "frontend/lower.hpp"
#include "kernels/table2.hpp"
#include "service/analyze.hpp"
#include "service/json.hpp"
#include "support/cancel.hpp"
#include "support/digest.hpp"
#include "support/parse.hpp"

namespace soap::service {

namespace {

/// Largest `analyze` body, and largest single input line, the daemon
/// buffers.  A longer body is read through to its `end` line and a longer
/// line through its newline, so the stream stays in sync, and then answered
/// with invalid_input: no client can grow server memory without limit.
constexpr std::size_t kMaxBodyBytes = std::size_t{1} << 20;

/// Reads one line, without its newline or a trailing '\r', in bulk chunks;
/// false at end of input.  A line longer than kMaxBodyBytes is read through
/// its newline but not kept: `line` comes back empty and `too_long` set.
bool read_line(std::istream& in, std::string& line, bool& too_long) {
  line.clear();
  too_long = false;
  bool any = false;
  char chunk[4096];
  for (;;) {
    in.getline(chunk, sizeof chunk);
    auto got = static_cast<std::size_t>(in.gcount());
    any = any || got > 0;
    const bool ended = in.good();  // the newline, counted in gcount
    if (ended) --got;
    too_long = too_long || line.size() + got > kMaxBodyBytes;
    if (!too_long) line.append(chunk, got);
    if (ended || in.eof() || in.bad()) break;
    in.clear();  // the chunk filled before the newline: read on
  }
  if (too_long) std::string().swap(line);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return any;
}

/// `token` cut to 64 bytes (on a UTF-8 boundary) for an error message.
std::string clip(const std::string& token) {
  std::size_t cut = 64;
  if (token.size() <= cut) return token;
  while (cut > 0 && (static_cast<unsigned char>(token[cut]) & 0xC0) == 0x80) {
    --cut;
  }
  return token.substr(0, cut) + "...";
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream ss(line);
  std::string token;
  while (ss >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// Per-request option bag parsed from the `k=v` tokens after the command.
struct RequestOpts {
  std::string id;
  std::size_t timeout_ms = 0;
  std::size_t node_budget = 0;
  std::optional<std::size_t> max_subgraph_size;
  std::optional<std::size_t> max_subgraphs;
  std::string error;  ///< non-empty = malformed request

  [[nodiscard]] bool ok() const { return error.empty(); }
};

RequestOpts parse_opts(const std::vector<std::string>& tokens,
                       std::size_t first, std::size_t default_timeout_ms,
                       std::size_t default_node_budget, bool program_mode) {
  RequestOpts opts;
  opts.timeout_ms = default_timeout_ms;
  opts.node_budget = default_node_budget;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      opts.error = "malformed option '" + clip(token) + "' (want k=v)";
      return opts;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "id") {
      opts.id = value;
      continue;
    }
    const std::optional<std::size_t> n = support::parse_size_t(value);
    if (!n) {
      opts.error =
          "invalid value for " + clip(key) + ": '" + clip(value) + "'";
      return opts;
    }
    if (key == "timeout-ms") {
      opts.timeout_ms = *n;
    } else if (key == "node-budget") {
      opts.node_budget = *n;
    } else if (program_mode && key == "max-subgraph-size") {
      opts.max_subgraph_size = *n;
    } else if (program_mode && key == "max-subgraphs") {
      opts.max_subgraphs = *n;
    } else {
      opts.error = "unknown option '" + clip(key) + "'";
      return opts;
    }
  }
  return opts;
}

/// The alias of a request in the bound cache: a digest of the request
/// text that decides its bound — the kernel name, or the `analyze` body
/// and its subgraph options.  The id, deadline and node budget are left
/// out, as the cache key leaves them out.
support::Digest request_alias(const std::string& kernel_name,
                              const std::string& body,
                              const RequestOpts& opts) {
  support::DigestWriter w;
  w.mix_string("analyzed request alias v1");
  w.mix_bool(kernel_name.empty());
  w.mix_string(kernel_name.empty() ? body : kernel_name);
  w.mix_bool(opts.max_subgraph_size.has_value());
  w.mix_u64(opts.max_subgraph_size.value_or(0));
  w.mix_bool(opts.max_subgraphs.has_value());
  w.mix_u64(opts.max_subgraphs.value_or(0));
  return w.finish();
}

std::string program_reply(const std::string& id,
                          const ProgramAnalysis& analysis) {
  return "{\"id\":" + json_string(id) + ',' + program_json_fields(analysis) +
         '}';
}

std::string kernel_reply(const std::string& id, CacheOutcome cache_outcome,
                         const kernels::KernelOutcome& outcome) {
  return "{\"id\":" + json_string(id) + ",\"cache\":" +
         json_string(cache_outcome_name(cache_outcome)) + ',' +
         outcome_json(outcome).substr(1);
}

/// Splices the latency into a reply object (it always ends in '}').
void add_elapsed(std::string& reply, std::uint64_t elapsed_us) {
  reply.insert(reply.size() - 1,
               ",\"elapsed_us\":" + std::to_string(elapsed_us));
}

std::uint64_t micros_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

std::size_t LatencyHistogram::bucket(std::uint64_t us) {
  if (us < kSubBuckets) return static_cast<std::size_t>(us);
  const int shift = std::bit_width(us) - 4;  // keeps the top 4 bits
  return static_cast<std::size_t>(shift + 1) * kSubBuckets +
         static_cast<std::size_t>((us >> shift) & (kSubBuckets - 1));
}

std::uint64_t LatencyHistogram::upper_bound(std::size_t bucket) {
  if (bucket < kSubBuckets) return bucket;
  const std::size_t shift = bucket / kSubBuckets - 1;
  const std::uint64_t top = kSubBuckets + bucket % kSubBuckets;
  return ((top + 1) << shift) - 1;
}

void LatencyHistogram::record(std::uint64_t us) {
  ++counts_[bucket(us)];
  ++total_;
}

std::uint64_t LatencyHistogram::percentile(int p) const {
  if (total_ == 0) return 0;
  const std::uint64_t rank =
      std::min(total_ - 1, total_ * static_cast<std::uint64_t>(p) / 100);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen > rank) return upper_bound(b);
  }
  return upper_bound(counts_.size() - 1);
}

struct Server::Impl {
  std::mutex mutex;  ///< guards everything below
  std::condition_variable cv;
  std::size_t inflight = 0;
  std::uint64_t next_id = 0;
  std::unordered_map<std::string, support::CancellationSource> active;
  LatencyHistogram latency;  ///< completed analyze/kernel requests
  std::mutex out_mutex;      ///< whole-line reply writes
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(std::make_unique<BoundCache>(options_.cache)),
      impl_(std::make_unique<Impl>()) {}

Server::~Server() = default;

int Server::serve(std::istream& in, std::ostream& out) {
  Impl& impl = *impl_;

  const auto write_reply = [&impl, &out](const std::string& reply) {
    std::lock_guard<std::mutex> lock(impl.out_mutex);
    out << reply << '\n';
    out.flush();
  };
  const auto drain = [&impl] {
    std::unique_lock<std::mutex> lock(impl.mutex);
    impl.cv.wait(lock, [&impl] { return impl.inflight == 0; });
  };
  const auto error_reply = [](const std::string& id, const char* status,
                              const std::string& message) {
    return "{\"id\":" + json_string(id) + ",\"status\":" +
           json_string(status) + ",\"error\":" + json_string(message) + '}';
  };

  // The body of one analyze/kernel request; runs on a dispatch thread (or
  // inline when request_threads <= 1).  `body` is empty for kernel mode.
  // A non-degraded bound makes `alias` name its cache entry.
  const auto run_request = [this, &impl, &write_reply, &error_reply](
                               RequestOpts opts, std::string kernel_name,
                               std::string body, support::Digest alias,
                               support::CancellationToken cancel) {
    const auto start = std::chrono::steady_clock::now();
    support::StopCriteria stop;
    stop.cancel = std::move(cancel);
    if (opts.timeout_ms != 0) {
      stop.deadline = support::Deadline::after_ms(opts.timeout_ms);
    }
    stop.budget.max_live_nodes = opts.node_budget;

    std::string reply;
    try {
      if (kernel_name.empty()) {
        Program program = frontend::parse_program(body);
        sdg::SdgOptions options;
        options.threads = options_.analysis_threads;
        options.executor = options_.executor;
        options.stop = stop;
        if (opts.max_subgraph_size) {
          options.max_subgraph_size = *opts.max_subgraph_size;
        }
        if (opts.max_subgraphs) options.max_subgraphs = *opts.max_subgraphs;
        const ProgramAnalysis analysis =
            analyze_program(cache_.get(), program, options);
        if (analysis.bound && !analysis.bound->degraded) {
          cache_->add_alias(alias, analysis.key);
        }
        reply = program_reply(opts.id, analysis);
      } else {
        const kernels::KernelEntry* entry = nullptr;
        try {
          entry = &kernels::kernel_by_name(kernel_name);
        } catch (const std::out_of_range&) {
          reply = error_reply(opts.id, "invalid_input",
                              "unknown kernel '" + clip(kernel_name) + "'");
        }
        if (entry != nullptr) {
          CacheOutcome cache_outcome = CacheOutcome::kMiss;
          CacheKey key;
          const kernels::KernelOutcome outcome =
              kernels::analyze_kernel_checked(
                  *entry, options_.analysis_threads, options_.executor, stop,
                  cached_derive(*cache_, &cache_outcome, &key));
          if (outcome.ok() && !outcome.degraded) cache_->add_alias(alias, key);
          reply = kernel_reply(opts.id, cache_outcome, outcome);
        }
      }
    } catch (const support::AnalysisError& e) {
      reply = error_reply(opts.id, support::status_code_name(e.code()),
                          e.what());
    } catch (const std::exception& e) {
      reply = error_reply(opts.id, "internal_error", e.what());
    }
    const std::uint64_t elapsed_us = micros_since(start);
    add_elapsed(reply, elapsed_us);
    write_reply(reply);
    // Notify under the lock: once `drain` sees inflight == 0 the Server
    // may be destroyed, so this thread must not touch `impl.cv` after
    // releasing the mutex.
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.active.erase(opts.id);
    impl.latency.record(elapsed_us);
    --impl.inflight;
    impl.cv.notify_all();
  };

  // A request whose alias names a cached entry, answered on this thread:
  // no parse, no derivation, no dispatch.  The reply is the one a worker
  // would render for a cache hit.  False when the alias is unknown.
  const auto answer_hit = [this, &impl, &write_reply](
                              const RequestOpts& opts,
                              const std::string& kernel_name,
                              const support::Digest& alias,
                              std::chrono::steady_clock::time_point start) {
    std::optional<AliasHit> hit = cache_->lookup_alias(alias);
    if (!hit) return false;
    std::string reply;
    if (kernel_name.empty()) {
      ProgramAnalysis analysis;
      analysis.key = hit->key;
      analysis.bound = std::move(hit->bound);
      analysis.outcome = CacheOutcome::kHit;
      reply = program_reply(opts.id, analysis);
    } else {
      reply = kernel_reply(
          opts.id, CacheOutcome::kHit,
          kernels::kernel_outcome(kernels::kernel_by_name(kernel_name),
                                  hit->bound));
    }
    const std::uint64_t elapsed_us = micros_since(start);
    add_elapsed(reply, elapsed_us);
    write_reply(reply);
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.latency.record(elapsed_us);
    return true;
  };

  std::string line;
  bool too_long = false;
  while (read_line(in, line, too_long)) {
    if (too_long) {
      write_reply(error_reply("", "invalid_input",
                              "request line exceeds " +
                                  std::to_string(kMaxBodyBytes) + " bytes"));
      continue;
    }
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& cmd = tokens[0];

    if (cmd == "quit") break;

    if (cmd == "cancel") {
      if (tokens.size() != 2) {
        write_reply(error_reply("", "invalid_input", "usage: cancel ID"));
        continue;
      }
      bool delivered = false;
      {
        std::lock_guard<std::mutex> lock(impl.mutex);
        auto it = impl.active.find(tokens[1]);
        if (it != impl.active.end()) {
          it->second.request_cancel();
          delivered = true;
        }
      }
      write_reply("{\"cancel\":" + json_string(tokens[1]) +
                  ",\"delivered\":" + (delivered ? "true" : "false") + '}');
      continue;
    }

    if (cmd == "stats") {
      RequestOpts opts =
          parse_opts(tokens, 1, 0, 0, /*program_mode=*/false);
      if (!opts.ok()) {
        write_reply(error_reply(opts.id, "invalid_input", opts.error));
        continue;
      }
      drain();  // the reported counters/latencies cover every prior request
      const BoundCacheStats s = cache_->stats();
      std::uint64_t p50_us = 0;
      std::uint64_t p99_us = 0;
      {
        std::lock_guard<std::mutex> lock(impl.mutex);
        p50_us = impl.latency.percentile(50);
        p99_us = impl.latency.percentile(99);
      }
      std::string reply = "{\"id\":" + json_string(opts.id);
      reply += ",\"requests\":" + std::to_string(s.requests());
      reply += ",\"hits\":" + std::to_string(s.hits);
      reply += ",\"misses\":" + std::to_string(s.misses);
      reply += ",\"coalesced\":" + std::to_string(s.coalesced);
      reply += ",\"evicted\":" + std::to_string(s.evicted);
      reply += ",\"entries\":" + std::to_string(s.entries);
      reply += ",\"persisted_loaded\":" + std::to_string(s.persisted_loaded);
      reply += ",\"hit_rate\":" + json_double(s.hit_rate());
      reply += ",\"p50_us\":" + std::to_string(p50_us);
      reply += ",\"p99_us\":" + std::to_string(p99_us);
      reply += '}';
      write_reply(reply);
      continue;
    }

    const bool is_analyze = cmd == "analyze";
    const bool is_kernel = cmd == "kernel";
    if (!is_analyze && !is_kernel) {
      write_reply(error_reply("", "invalid_input",
                              "unknown command '" + clip(cmd) + "'"));
      continue;
    }
    if (is_kernel && tokens.size() < 2) {
      write_reply(error_reply("", "invalid_input",
                              "usage: kernel NAME [k=v ...]"));
      continue;
    }
    RequestOpts opts = parse_opts(
        tokens, is_kernel ? 2 : 1, options_.default_timeout_ms,
        options_.default_node_budget, /*program_mode=*/is_analyze);
    std::string kernel_name = is_kernel ? tokens[1] : std::string();

    std::string body;
    if (is_analyze) {
      // Body lines up to the `end` terminator.  EOF mid-body is a client
      // error: reply and shut down (the stream is gone).  Past
      // kMaxBodyBytes the body is dropped and the rest skipped.
      bool terminated = false;
      bool oversized = false;
      std::string body_line;
      while (read_line(in, body_line, too_long)) {
        if (body_line == "end") {
          terminated = true;
          break;
        }
        oversized = oversized || too_long ||
                    body.size() + body_line.size() + 1 > kMaxBodyBytes;
        if (oversized) {
          std::string().swap(body);
          continue;
        }
        body += body_line;
        body += '\n';
      }
      if (!terminated) {
        write_reply(error_reply(opts.id, "invalid_input",
                                "EOF before `end` terminator"));
        break;
      }
      if (oversized) {
        write_reply(error_reply(opts.id, "invalid_input",
                                "analyze body exceeds " +
                                    std::to_string(kMaxBodyBytes) + " bytes"));
        continue;
      }
    }
    if (!opts.ok()) {
      write_reply(error_reply(opts.id, "invalid_input", opts.error));
      continue;
    }

    // Admission: assign an id, answer a cached request at once, else
    // register the cancellation source and wait for a request slot.
    // Duplicate in-flight ids are rejected (cancel would be ambiguous).
    const auto start = std::chrono::steady_clock::now();
    const support::Digest alias = request_alias(kernel_name, body, opts);
    support::CancellationToken cancel;
    {
      std::unique_lock<std::mutex> lock(impl.mutex);
      if (opts.id.empty()) opts.id = "r" + std::to_string(++impl.next_id);
      if (impl.active.count(opts.id) != 0) {
        const std::string id = opts.id;
        lock.unlock();
        write_reply(error_reply(id, "invalid_input",
                                "duplicate in-flight id '" + clip(id) + "'"));
        continue;
      }
    }
    if (answer_hit(opts, kernel_name, alias, start)) continue;
    {
      std::unique_lock<std::mutex> lock(impl.mutex);
      const std::size_t slots =
          options_.request_threads == 0 ? 1 : options_.request_threads;
      impl.cv.wait(lock, [&impl, slots] { return impl.inflight < slots; });
      support::CancellationSource source;
      cancel = source.token();
      impl.active.emplace(opts.id, std::move(source));
      ++impl.inflight;
    }
    if (options_.request_threads <= 1) {
      run_request(std::move(opts), std::move(kernel_name), std::move(body),
                  alias, std::move(cancel));
    } else {
      options_.executor.submit(
          [run_request, opts = std::move(opts),
           kernel_name = std::move(kernel_name), body = std::move(body),
           alias, cancel = std::move(cancel)]() mutable {
            run_request(std::move(opts), std::move(kernel_name),
                        std::move(body), alias, std::move(cancel));
          });
    }
  }
  drain();
  return 0;
}

}  // namespace soap::service
