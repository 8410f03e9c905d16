// The benchmark's workloads and the report every one of them fills.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kernels/registry.hpp"
#include "symbolic/expr.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string self_path;      ///< this binary (the set-up probe)
  std::string analyzed_path;  ///< the shipped analyzed binary
  std::string trace_path;     ///< where the span file goes
};

/// Worker budget of the parallel workloads and of analyzed's request slots.
constexpr std::size_t kThreads = 4;
/// Set-up is measured this many times per run; the median is reported.
constexpr int kSetupRepeats = 7;

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::vector<std::string> problems;  ///< one line per failure or mismatch
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& what) {
    ++failed;
    problems.push_back("failed: " + what);
  }
  void mismatch(const std::string& what) {
    ++wrong;
    problems.push_back("wrong: " + what);
  }
};

/// Reference check of a derived bound against a kernel's recorded
/// expected_bound: the same hash-consed node, the same node after
/// expanding the recorded form, or numerically equal (the golden tests'
/// rule for recorded forms spelled differently from the derived one).
bool matches_reference(const soap::sym::Expr& got,
                       const soap::sym::Expr& expected);

/// End-to-end metrics shared by every workload: `wall_s` summarizes
/// `pass_s`, the walls of the workload's repeated unit of work;
/// `latency_ms` are the latencies of the calls a user waits on, `items`
/// the results produced in `timed_s`.
void add_end_to_end(Report& report, double setup_s, double wall_s,
                    const std::vector<double>& pass_s,
                    const std::vector<double>& latency_ms, std::size_t items,
                    double timed_s, double peak_rss_mb);

/// The largest per-name median of `samples` (0 when empty); its name goes
/// to `name` when non-null.
double slowest_median(const std::map<std::string, std::vector<double>>& samples,
                      std::string* name);

/// The registry kernels in a seeded order.  Serial workloads visit kernels
/// in this order so that the cheap kernels that set a pass's latency
/// percentiles are spread over the pass instead of running back to back.
std::vector<const soap::kernels::KernelEntry*> kernel_order(std::uint64_t seed);

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// Median of kSetupRepeats start-ups of this binary's set-up probe, which
/// materializes the registry and a pool of `threads` workers.
double measure_probe_setup(const Args& args, std::size_t threads);

Report run_corpus_serial(const Args& args);
Report run_corpus_threads(const Args& args);
Report run_serve_mixed(const Args& args);
Report run_attainment_sim(const Args& args);

/// The per-layer metric names, in report order, with their units.  Every
/// traced run reports all of them; a layer a workload does not exercise
/// reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Reorders `report.metrics` to per_layer_metrics() order, filling 0 for
/// any layer the workload did not measure.
void complete_per_layer(Report& report);

}  // namespace perfbench
