// serve_mixed: the shipped `analyzed` binary over its stdin protocol, driven
// by one closed-loop client that keeps kThreads requests outstanding.  The
// request stream comes from the seed (reqgen.hpp); every reply's bound is
// checked against the rendered expected_bound of its source kernel.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "child.hpp"
#include "frontend/lower.hpp"
#include "replay.hpp"
#include "reqgen.hpp"
#include "service/bound_cache.hpp"
#include "service/cache_key.hpp"
#include "service/json.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace kernels = soap::kernels;
namespace service = soap::service;

namespace {

/// Requests replayed through the in-process hit path in a traced run.
constexpr std::size_t kHitReplays = 2000;

/// The string value of `"key":"..."` in a one-line JSON reply.
std::optional<std::string> json_field(const std::string& reply,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = at + needle.size(); i < reply.size(); ++i) {
    if (reply[i] == '\\' && i + 1 < reply.size()) {
      out += reply[++i];
    } else if (reply[i] == '"') {
      return out;
    } else {
      out += reply[i];
    }
  }
  return std::nullopt;
}

/// The numeric value of `"key":N` in a one-line JSON reply.
double json_number(const std::string& reply, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(reply.c_str() + at + needle.size(), nullptr);
}

/// Every `"rho":"..."` value of a reply's per-array list.
std::vector<std::string> reply_rhos(const std::string& reply) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while ((at = reply.find("\"rho\":\"", at)) != std::string::npos) {
    auto value = json_field(reply.substr(at), "rho");
    if (value) out.push_back(*value);
    at += 7;
  }
  return out;
}

struct Served {
  const Request* request = nullptr;
  std::string reply;
  double latency_us = 0.0;
  Clock::time_point done;
  bool hit = false;
};

/// One analyzed process and the closed-loop client in front of it.
class Client {
 public:
  explicit Client(const Args& args)
      : child_({args.analyzed_path, "--threads", std::to_string(kThreads)}) {}

  /// Sends `requests` keeping kThreads outstanding, stops sending once
  /// `stop_at` passes, drains, and returns every completed exchange in
  /// completion order.
  std::vector<Served> run(const std::vector<Request>& requests,
                          std::optional<Clock::time_point> stop_at,
                          Report& report) {
    std::vector<Served> out;
    using Sent = std::pair<const Request*, Clock::time_point>;
    std::unordered_map<std::string, Sent> outstanding;
    std::size_t next = 0;
    const auto can_send = [&] {
      return next < requests.size() && outstanding.size() < kThreads &&
             (!stop_at || Clock::now() < *stop_at);
    };
    while (can_send() || !outstanding.empty()) {
      while (can_send()) {
        const Request& r = requests[next++];
        outstanding[r.id] = {&r, Clock::now()};
        if (!child_.write(r.text)) {
          throw std::runtime_error("analyzed closed its input");
        }
      }
      std::optional<std::string> line = child_.read_line();
      const Clock::time_point now = Clock::now();
      if (!line) throw std::runtime_error("analyzed exited mid-stream");
      const std::optional<std::string> id = json_field(*line, "id");
      auto it = id ? outstanding.find(*id) : outstanding.end();
      if (it == outstanding.end()) {
        throw std::runtime_error("unexpected reply: " + *line);
      }
      Served s;
      s.request = it->second.first;
      s.done = now;
      s.latency_us =
          std::chrono::duration<double, std::micro>(now - it->second.second)
              .count();
      s.hit = json_field(*line, "cache").value_or("") == "hit";
      s.reply = std::move(*line);
      outstanding.erase(it);
      check(s, report);
      out.push_back(std::move(s));
    }
    return out;
  }

  /// The `stats` reply after every earlier request finished.
  std::string stats() {
    child_.write("stats id=stats\n");
    return child_.read_line().value_or("");
  }

  /// Quits and returns the peak RSS of analyzed in MB.
  double quit() {
    child_.write("quit\n");
    long rss_kb = 0;
    if (child_.wait(&rss_kb) != 0) {
      throw std::runtime_error("analyzed exited with an error");
    }
    return static_cast<double>(rss_kb) / 1024.0;
  }

 private:
  static void check(const Served& s, Report& report) {
    ++report.attempted;
    const Request& r = *s.request;
    if (json_field(s.reply, "status").value_or("") != "ok") {
      report.fail(r.id + " (" + r.kernel + "): " + s.reply);
      return;
    }
    const std::optional<std::string> bound = json_field(s.reply, "bound");
    if (!bound || std::find(r.expected.begin(), r.expected.end(), *bound) ==
                      r.expected.end()) {
      report.mismatch(r.id + " (" + r.kernel + "): bound " +
                      bound.value_or("null") + " != expected " +
                      r.expected.front());
    }
  }

  Child child_;
};

double measure_analyzed_setup(const Args& args) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Client client(args);
    const std::string reply = client.stats();
    samples.push_back(seconds_since(t0));
    if (reply.find("\"requests\":0") == std::string::npos) {
      throw std::runtime_error("unexpected stats reply: " + reply);
    }
    client.quit();
  }
  std::printf("%s\n", format_summary("setup", samples, "s").c_str());
  return median(samples);
}

/// Timed cycles generated per run: enough that the stream outlasts
/// --seconds even at several times the measured throughput.
std::size_t cycles_for(double seconds) {
  return static_cast<std::size_t>(seconds) * 2 + 4;
}

struct SplitLatency {
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
};

SplitLatency split(const std::vector<Served>& served) {
  SplitLatency out;
  for (const Served& s : served) {
    if (s.hit) {
      out.hit_us.push_back(s.latency_us);
    } else {
      out.miss_ms.push_back(s.latency_us / 1e3);
    }
  }
  std::printf("%s\n", format_summary("hit", out.hit_us, "us").c_str());
  std::printf("%s\n", format_summary("miss", out.miss_ms, "ms").c_str());
  return out;
}

// In-process replay of the hit path for the stream's hot analyze bodies:
// parse, key, lookup and render, each in its own span.
void replay_hit_path(const Stream& stream, double client_hit_p50_us,
                     Tracer& tracer, Report& report) {
  struct Hot {
    soap::Program program;
    std::string body;
    soap::sdg::SdgOptions options;
  };
  std::vector<Hot> hot;
  service::BoundCache cache;
  for (const Request& r : stream.prime) {
    if (r.body.empty()) continue;
    Hot h{soap::frontend::parse_program(r.body), r.body, {}};
    const auto& entry = kernels::Registry::instance().at(r.kernel);
    h.options.max_subgraph_size = entry.options.max_subgraph_size;
    h.options.max_subgraphs = entry.options.max_subgraphs;
    const service::CacheKey key = service::make_cache_key(h.program, h.options);
    Tracer::Scope span(tracer, "service.get_or_derive", r.id);
    cache.get_or_derive(key, [&h] {
      return *soap::sdg::multi_statement_bound(h.program, h.options);
    });
    hot.push_back(std::move(h));
  }
  if (hot.empty()) return;
  for (std::size_t i = 0; i < kHitReplays; ++i) {
    const Hot& h = hot[i % hot.size()];
    const std::string owner = "hit" + std::to_string(i);
    soap::Program program = [&] {
      Tracer::Scope span(tracer, "frontend.parse", owner);
      return soap::frontend::parse_program(h.body);
    }();
    const service::CacheKey key = [&] {
      Tracer::Scope span(tracer, "service.key", owner);
      return service::make_cache_key(program, h.options);
    }();
    std::optional<soap::sdg::MultiStatementBound> bound;
    {
      Tracer::Scope span(tracer, "service.lookup", owner);
      bound = cache.lookup(key);
    }
    if (!bound) {
      report.mismatch("in-process replay missed a primed key");
      return;
    }
    Tracer::Scope span(tracer, "service.json", owner);
    const std::string json = service::bound_json_fields(*bound);
    if (json.empty()) report.mismatch("empty bound rendering");
  }
  {
    Tracer::Scope span(tracer, "service.stats", "replay");
    (void)cache.stats();
  }
  const auto us = [&tracer](const char* name) {
    return median(tracer.durations_ms(name)) * 1e3;
  };
  const double in_process = us("frontend.parse") + us("service.key") +
                            us("service.lookup") + us("service.json");
  report.metric("frontend.parse_us", us("frontend.parse"), "us");
  report.metric("service.key_us", us("service.key"), "us");
  report.metric("service.lookup_us", us("service.lookup"), "us");
  report.metric("service.json_us", us("service.json"), "us");
  report.metric("service.protocol_us", client_hit_p50_us - in_process, "us");
}

// Stage replay of one served miss per pool kernel, checked against what
// analyzed replied for it.
void replay_misses(const std::vector<Served>& served, Tracer& tracer,
                   Report& report) {
  DerivationCounters counters;
  std::set<std::string> done;
  for (const Served& s : served) {
    const Request& r = *s.request;
    if (r.body.empty() || s.hit || !done.insert(r.kernel).second) continue;
    const auto& entry = kernels::Registry::instance().at(r.kernel);
    Tracer::Scope request_span(tracer, "request", r.id);
    soap::Program program = [&] {
      Tracer::Scope span(tracer, "kernels.build", r.id);
      return soap::frontend::parse_program(r.body);
    }();
    soap::sdg::SdgOptions options;
    options.max_subgraph_size = entry.options.max_subgraph_size;
    options.max_subgraphs = entry.options.max_subgraphs;
    const ReplayResult replay =
        replay_derivation(tracer, program, options, r.id, counters);
    if (static_cast<std::size_t>(json_number(s.reply, "subgraphs")) !=
        replay.evaluated) {
      report.mismatch(r.id + " replay: subgraph count differs from reply");
    }
    if (json_field(s.reply, "bound").value_or("") != replay.Q_leading.str()) {
      report.mismatch(r.id + " replay: reduced bound differs from reply");
    }
    std::set<std::string> replayed;
    for (const auto& [arrays, rho] : replay.rho_of) replayed.insert(rho.str());
    for (const std::string& rho : reply_rhos(s.reply)) {
      if (rho != "0" && replayed.count(rho) == 0) {
        report.mismatch(r.id + " replay: rho " + rho + " not replayed");
      }
    }
  }
  add_derivation_layers(report, tracer, counters);
}

}  // namespace

Report run_serve_mixed(const Args& args) {
  Report report;
  const double setup_s = args.trace ? 0.0 : measure_analyzed_setup(args);
  const Stream stream = generate_stream(args.seed, cycles_for(args.seconds));

  Client client(args);
  client.run(stream.prime, std::nullopt, report);  // warm-up, not timed

  const Clock::time_point t_timed = Clock::now();
  const Clock::time_point stop_at =
      t_timed + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
  const std::vector<Served> served = client.run(stream.timed, stop_at, report);
  const double drained_s = seconds_since(t_timed);
  const std::string stats = client.stats();
  const double rss_mb = client.quit();

  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> miss_ms_by_kernel;
  // A cycle's wall ends when its last reply arrives.
  std::vector<std::size_t> left(stream.timed.back().cycle + 1,
                                stream.cycle_length);
  std::vector<double> cycle_end_s;
  // Throughput counts the replies inside the timed window; the drain after
  // it is a few stragglers whose count says nothing about the rate.
  std::size_t in_window = 0;
  for (const Served& s : served) {
    latency_ms.push_back(s.latency_us / 1e3);
    if (s.done <= stop_at) ++in_window;
    if (!s.hit) {
      miss_ms_by_kernel[s.request->kernel].push_back(s.latency_us / 1e3);
    }
    if (--left[s.request->cycle] == 0) {
      cycle_end_s.push_back(
          std::chrono::duration<double>(s.done - t_timed).count());
    }
  }
  std::sort(cycle_end_s.begin(), cycle_end_s.end());
  std::vector<double> pass_s;
  for (std::size_t i = 0; i < cycle_end_s.size(); ++i) {
    pass_s.push_back(cycle_end_s[i] - (i == 0 ? 0.0 : cycle_end_s[i - 1]));
  }
  std::string slowest;
  const double slowest_ms = slowest_median(miss_ms_by_kernel, &slowest);
  std::printf("served %zu requests in %.3f s (%zu full cycles of %zu); "
              "slowest miss: %s %.1f ms\n",
              served.size(), drained_s, pass_s.size(), stream.cycle_length,
              slowest.c_str(), slowest_ms);
  std::printf("stats: %s\n", stats.c_str());
  const SplitLatency hits_misses = split(served);
  if (pass_s.empty()) report.fail("no full request cycle completed");

  if (!args.trace) {
    // Cycles overlap (a long miss finishes in the next cycle), so single
    // cycle walls jitter; the mean over all full cycles does not.
    const double wall_s =
        cycle_end_s.empty() ? 0.0
                            : cycle_end_s.back() /
                                  static_cast<double>(cycle_end_s.size());
    add_end_to_end(report, setup_s, wall_s, pass_s, latency_ms, in_window,
                   args.seconds, rss_mb);
    return report;
  }

  report.metric("service.hits", json_number(stats, "hits"), "count");
  report.metric("service.misses", json_number(stats, "misses"), "count");
  report.metric("service.coalesced", json_number(stats, "coalesced"), "count");
  report.metric("service.evicted", json_number(stats, "evicted"), "count");
  report.metric("service.hit_rate", json_number(stats, "hit_rate"), "ratio");
  const double hit_p50_us = median(hits_misses.hit_us);
  report.metric("service.hit_p50_us", hit_p50_us, "us");
  report.metric("service.hit_p99_us", percentile(hits_misses.hit_us, 99),
                "us");
  report.metric("service.miss_p50_ms", median(hits_misses.miss_ms), "ms");
  report.metric("service.miss_p90_ms", percentile(hits_misses.miss_ms, 90),
                "ms");
  Tracer tracer;
  replay_hit_path(stream, hit_p50_us, tracer, report);
  replay_misses(served, tracer, report);
  std::printf("trace overhead: none in the served run; the replays run "
              "in-process after it\n");
  if (!tracer.write_chrome_json(args.trace_path)) {
    report.fail("cannot write " + args.trace_path);
  }
  return report;
}

}  // namespace perfbench
