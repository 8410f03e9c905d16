#include <sys/resource.h>

#include <cstdio>
#include <map>
#include <stdexcept>

#include "child.hpp"
#include "reqgen.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

void add_end_to_end(Report& report, double setup_s, double wall_s,
                    const std::vector<double>& pass_s,
                    const std::vector<double>& latency_ms, std::size_t items,
                    double timed_s, double peak_rss_mb) {
  std::printf("%s\n", format_summary("pass", pass_s, "s").c_str());
  std::printf("pass walls (s):");
  for (double s : pass_s) std::printf(" %.3f", s);
  std::printf("\n");
  std::printf("%s\n", format_summary("latency", latency_ms, "ms").c_str());
  report.metric("setup_s", setup_s, "s");
  report.metric("wall_s", wall_s, "s");
  report.metric("items_per_s",
                timed_s > 0 ? static_cast<double>(items) / timed_s : 0.0,
                "1/s");
  // The geometric mean weighs every call: a median over calls of many
  // different costs jumps between neighbouring calls from run to run.
  report.metric("latency_geomean_ms", geomean(latency_ms), "ms");
  report.metric("latency_p90_ms", percentile(latency_ms, 90), "ms");
  report.metric("peak_rss_mb", peak_rss_mb, "MB");
}

bool matches_reference(const soap::sym::Expr& got,
                       const soap::sym::Expr& expected) {
  return got == expected || got == soap::sym::expand(expected) ||
         soap::sym::numerically_equal(got, expected);
}

double slowest_median(const std::map<std::string, std::vector<double>>& samples,
                      std::string* name) {
  double slowest = 0.0;
  for (const auto& [key, values] : samples) {
    const double m = median(values);
    if (m > slowest) {
      slowest = m;
      if (name != nullptr) *name = key;
    }
  }
  return slowest;
}

std::vector<const soap::kernels::KernelEntry*> kernel_order(
    std::uint64_t seed) {
  std::vector<const soap::kernels::KernelEntry*> out;
  for (const auto& entry : soap::kernels::Registry::instance().kernels()) {
    out.push_back(&entry);
  }
  Rng rng(seed);
  shuffle(out, rng);
  return out;
}

double self_peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double measure_probe_setup(const Args& args, std::size_t threads) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    Child probe({args.self_path, "--ready", std::to_string(threads)});
    const std::optional<std::string> line = probe.read_line();
    const double s = seconds_since(t0);
    if (!line || *line != "ready" || probe.wait() != 0) {
      throw std::runtime_error("set-up probe did not become ready");
    }
    samples.push_back(s);
  }
  std::printf("%s\n", format_summary("setup", samples, "s").c_str());
  return median(samples);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"kernels.build_ms", "ms"},
      {"sdg.build_ms", "ms"},
      {"sdg.enumerate_ms", "ms"},
      {"sdg.subgraphs", "count"},
      {"sdg.merge_ms", "ms"},
      {"sdg.reduce_ms", "ms"},
      {"bounds.chi_ms", "ms"},
      {"bounds.chi_calls", "count"},
      {"bounds.chi_unbounded_share", "ratio"},
      {"bounds.chi_exact_share", "ratio"},
      {"bounds.distinct_rho_share", "ratio"},
      {"bounds.intensity_ms", "ms"},
      {"bounds.opt.solve_ms", "ms"},
      {"bounds.opt.evals", "count"},
      {"bounds.opt.no_converge", "count"},
      {"symbolic.live_nodes_peak", "count"},
      {"support.tasks", "count"},
      {"support.task_wait_ms", "ms"},
      {"support.task_busy_ms", "ms"},
      {"support.parallel_efficiency", "ratio"},
      {"support.critical_path_share", "ratio"},
      {"frontend.parse_us", "us"},
      {"service.key_us", "us"},
      {"service.lookup_us", "us"},
      {"service.json_us", "us"},
      {"service.protocol_us", "us"},
      {"service.hits", "count"},
      {"service.misses", "count"},
      {"service.coalesced", "count"},
      {"service.evicted", "count"},
      {"service.hit_rate", "ratio"},
      {"service.hit_p50_us", "us"},
      {"service.hit_p99_us", "us"},
      {"service.miss_p50_ms", "ms"},
      {"service.miss_p90_ms", "ms"},
      {"analysis.derive_ms", "ms"},
      {"schedule.tiles_ms", "ms"},
      {"schedule.trace_ms", "ms"},
      {"schedule.trace_accesses", "count"},
      {"cachesim.lru_ms", "ms"},
      {"cachesim.belady_ms", "ms"},
      {"cachesim.footprint", "count"},
      {"trace.overhead_s", "s"},
  };
  return names;
}

void complete_per_layer(Report& report) {
  std::map<std::string, double> measured;
  for (const auto& [name, value] : report.metrics) measured[name] = value.first;
  report.metrics.clear();
  for (const auto& [name, unit] : per_layer_metrics()) {
    auto it = measured.find(name);
    report.metric(name, it == measured.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
