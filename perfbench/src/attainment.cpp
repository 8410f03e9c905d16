// attainment_sim: analysis::attainment_table over the registry at S=96,
// serially, one kernel per call (in kernel_order) so each row's latency is
// visible.  Rows
// are checked against the soundness invariant and the golden S=96 ratio
// bands recorded independently in tests/support.
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "analysis/attainment.hpp"
#include "attainment_golden.hpp"
#include "bounds/single_statement.hpp"
#include "cachesim/cache.hpp"
#include "replay.hpp"
#include "schedule/tiling.hpp"
#include "schedule/trace.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace analysis = soap::analysis;
namespace kernels = soap::kernels;

namespace {

constexpr long long kCacheSize = 96;

analysis::AttainmentOptions attainment_options() {
  analysis::AttainmentOptions options;
  options.cache_sizes = {kCacheSize};
  options.threads = 1;
  options.executor = soap::support::ExecutorRef::serial();
  return options;
}

// One pass: every registry kernel's row, timed per call.
std::vector<analysis::AttainmentRow> attainment_pass(
    const std::vector<const kernels::KernelEntry*>& order,
    std::vector<double>* latency_ms,
    std::map<std::string, std::vector<double>>* per_kernel, Report& report) {
  std::vector<analysis::AttainmentRow> rows;
  const auto options = attainment_options();
  for (const kernels::KernelEntry* entry : order) {
    const Clock::time_point t0 = Clock::now();
    ++report.attempted;
    try {
      for (auto& row : analysis::attainment_table({entry}, options)) {
        rows.push_back(std::move(row));
      }
    } catch (const std::exception& e) {
      report.fail(entry->name + ": " + e.what());
    }
    const double ms = seconds_since(t0) * 1e3;
    if (latency_ms != nullptr) latency_ms->push_back(ms);
    if (per_kernel != nullptr) (*per_kernel)[entry->name].push_back(ms);
  }
  return rows;
}

void check_rows(const std::vector<analysis::AttainmentRow>& rows,
                Report& report) {
  const std::size_t expected = kernels::Registry::instance().size();
  if (rows.size() != expected) {
    report.mismatch(std::to_string(rows.size()) + " rows, expected " +
                    std::to_string(expected));
  }
  if (analysis::count_unsound(rows) != 0) {
    report.mismatch(std::to_string(analysis::count_unsound(rows)) +
                    " unsound rows");
  }
  for (const auto& golden : soap::testing::attainment_golden_rows()) {
    if (golden.S != kCacheSize) continue;
    bool found = false;
    for (const auto& row : rows) {
      if (row.kernel != golden.name) continue;
      found = true;
      if (std::fabs(row.Q_lb - golden.q_lb) > 1.0 ||
          row.ratio() < golden.ratio_lo || row.ratio() > golden.ratio_hi) {
        report.mismatch(row.kernel + ": Q_lb " + std::to_string(row.Q_lb) +
                        " ratio " + std::to_string(row.ratio()) +
                        " outside its golden band");
      }
    }
    if (!found) report.mismatch(golden.name + ": golden row missing");
  }
}

Report trace_attainment(const Args& args) {
  Report report;
  const Clock::time_point t_product = Clock::now();
  const auto rows =
      attainment_pass(kernel_order(args.seed), nullptr, nullptr, report);
  const double untraced_s = seconds_since(t_product);
  check_rows(rows, report);

  Tracer tracer;
  DerivationCounters counters;
  std::size_t accesses = 0;
  std::size_t footprint = 0;
  const auto options = attainment_options();
  const Clock::time_point t_replay = Clock::now();
  for (const auto& row : rows) {
    const kernels::KernelEntry& entry =
        kernels::Registry::instance().at(row.kernel);
    Tracer::Scope kernel_span(tracer, "kernel", entry.name);
    soap::Program program = [&] {
      Tracer::Scope span(tracer, "kernels.build", entry.name);
      return entry.build();
    }();
    {
      Tracer::Scope span(tracer, "analysis.derive", entry.name);
      soap::sdg::SdgOptions bound_options = entry.options;
      bound_options.threads = 1;
      bound_options.executor = soap::support::ExecutorRef::serial();
      replay_derivation(tracer, program, bound_options, entry.name, counters);
    }
    const auto params = analysis::default_params(entry, options);
    long long lru = 0;
    long long belady = 0;
    for (const soap::Statement& st : program.statements) {
      // The statement's own bound is a derivation (the analysis layer's
      // cost); only turning it into tile sizes is the schedule's.
      std::optional<soap::bounds::IoLowerBound> sb;
      {
        Tracer::Scope span(tracer, "analysis.tile_bound", entry.name);
        sb = soap::bounds::single_statement_bound(st);
      }
      std::map<std::string, long long> tiles;
      if (sb) {
        Tracer::Scope span(tracer, "schedule.tiles", entry.name);
        tiles = soap::schedule::concrete_tiles(st, *sb, kCacheSize, params);
      }
      soap::schedule::TraceBuilder gen;
      {
        Tracer::Scope span(tracer, "schedule.trace", entry.name);
        if (tiles.empty()) {
          gen.append_natural(st, params);
        } else {
          gen.append_tiled(st, params, tiles);
        }
      }
      accesses += gen.trace().size();
      footprint += gen.distinct_addresses();
      {
        Tracer::Scope span(tracer, "cachesim.lru", entry.name);
        lru += soap::cachesim::simulate_lru(gen.trace(), kCacheSize).io();
      }
      {
        Tracer::Scope span(tracer, "cachesim.belady", entry.name);
        belady +=
            soap::cachesim::simulate_belady(gen.trace(), kCacheSize).io();
      }
    }
    if (lru != row.Q_sim_lru || belady != row.Q_sim_belady) {
      report.mismatch(entry.name + " replay: simulated I/O " +
                      std::to_string(lru) + "/" + std::to_string(belady) +
                      " != row " + std::to_string(row.Q_sim_lru) + "/" +
                      std::to_string(row.Q_sim_belady));
    }
  }
  const double traced_s = seconds_since(t_replay);

  add_derivation_layers(report, tracer, counters);
  // The replayed re-solves duplicate work derive_chi already did.
  report.metric("analysis.derive_ms",
                tracer.total_ms("analysis.derive") -
                    tracer.total_ms("bounds.opt.solve") +
                    tracer.total_ms("analysis.tile_bound"),
                "ms");
  report.metric("schedule.tiles_ms", tracer.total_ms("schedule.tiles"), "ms");
  report.metric("schedule.trace_ms", tracer.total_ms("schedule.trace"), "ms");
  report.metric("schedule.trace_accesses", static_cast<double>(accesses),
                "count");
  report.metric("cachesim.lru_ms", tracer.total_ms("cachesim.lru"), "ms");
  report.metric("cachesim.belady_ms", tracer.total_ms("cachesim.belady"),
                "ms");
  report.metric("cachesim.footprint", static_cast<double>(footprint), "count");
  const double resolve_s = tracer.total_ms("bounds.opt.solve") / 1e3;
  std::printf("trace overhead: traced %.3f s - untraced %.3f s = %.3f s "
              "(of which %.3f s re-solves the numeric fits)\n",
              traced_s, untraced_s, traced_s - untraced_s, resolve_s);
  report.metric("trace.overhead_s", traced_s - untraced_s, "s");
  if (!tracer.write_chrome_json(args.trace_path)) {
    report.fail("cannot write " + args.trace_path);
  }
  return report;
}

}  // namespace

Report run_attainment_sim(const Args& args) {
  if (args.trace) return trace_attainment(args);
  Report report;
  const double setup_s = measure_probe_setup(args, 1);
  std::vector<double> pass_s;
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> per_kernel;
  std::size_t items = 0;
  const auto order = kernel_order(args.seed);
  const Clock::time_point t_timed = Clock::now();
  do {
    const Clock::time_point t_pass = Clock::now();
    const auto rows = attainment_pass(order, &latency_ms, &per_kernel, report);
    pass_s.push_back(seconds_since(t_pass));
    check_rows(rows, report);
    items += rows.size();
  } while (seconds_since(t_timed) + median(pass_s) <= args.seconds);
  const double timed_s = seconds_since(t_timed);
  std::string slowest;
  const double slowest_ms = slowest_median(per_kernel, &slowest);
  std::printf("slowest row: %s %.1f ms\n", slowest.c_str(), slowest_ms);
  add_end_to_end(report, setup_s, median(pass_s), pass_s, latency_ms, items,
                 timed_s, self_peak_rss_mb());
  return report;
}

}  // namespace perfbench
