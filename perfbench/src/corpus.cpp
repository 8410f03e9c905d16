// corpus_serial and corpus_threads: the paper's Table 2 job over the whole
// registry, cold, checked kernel by kernel against the recorded
// expected_bound (hash-consing makes equal bounds the same node).
#include <cstdio>
#include <map>

#include "kernels/table2.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "support/thread_pool.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace kernels = soap::kernels;
namespace support = soap::support;

namespace {

std::vector<const kernels::KernelEntry*> registry_kernels() {
  std::vector<const kernels::KernelEntry*> out;
  for (const auto& entry : kernels::Registry::instance().kernels()) {
    out.push_back(&entry);
  }
  return out;
}

void check_outcome(const kernels::KernelEntry& entry,
                   const kernels::KernelOutcome& outcome, Report& report) {
  ++report.attempted;
  if (!outcome.ok() || outcome.status != support::StatusCode::kOk) {
    report.fail(entry.name + ": " + support::status_code_name(outcome.status) +
                " " + outcome.message);
  } else if (!matches_reference(*outcome.bound, entry.expected_bound)) {
    report.mismatch(entry.name + ": bound " + outcome.bound->str() +
                    " != expected " + entry.expected_bound.str());
  }
}

bool same_outcome(const kernels::KernelOutcome& a,
                  const kernels::KernelOutcome& b) {
  return a.kernel == b.kernel && a.status == b.status &&
         a.degraded == b.degraded && a.bound == b.bound &&
         a.message == b.message;
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

// The product path of one corpus kernel as analyze_kernel_checked runs it
// serially: build, then the multi-statement derivation.
soap::sdg::SdgOptions serial_options(const kernels::KernelEntry& entry) {
  soap::sdg::SdgOptions options = entry.options;
  options.threads = 1;
  options.executor = support::ExecutorRef::serial();
  return options;
}

Report trace_corpus_serial(const Args& args) {
  Report report;
  const auto all = kernel_order(args.seed);
  // Untraced product pass: the reference bounds and the untraced wall.
  std::vector<soap::sdg::MultiStatementBound> products;
  const Clock::time_point t_product = Clock::now();
  for (const auto* entry : all) {
    soap::Program program = entry->build();
    auto bound = soap::sdg::multi_statement_bound(program,
                                                  serial_options(*entry));
    ++report.attempted;
    if (!bound) {
      report.fail(entry->name + ": no bound");
      products.emplace_back();
      continue;
    }
    if (!matches_reference(bound->Q_leading, entry->expected_bound)) {
      report.mismatch(entry->name + ": bound " + bound->Q_leading.str());
    }
    products.push_back(*std::move(bound));
  }
  const double untraced_s = seconds_since(t_product);

  Tracer tracer;
  DerivationCounters counters;
  const Clock::time_point t_replay = Clock::now();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const kernels::KernelEntry& entry = *all[i];
    Tracer::Scope kernel_span(tracer, "kernel", entry.name);
    soap::Program program = [&] {
      Tracer::Scope span(tracer, "kernels.build", entry.name);
      return entry.build();
    }();
    ReplayResult replay = replay_derivation(
        tracer, program, serial_options(entry), entry.name, counters);
    const std::string diff = check_replay(products[i], replay);
    if (!diff.empty()) report.mismatch(entry.name + " replay: " + diff);
  }
  const double traced_s = seconds_since(t_replay);
  add_derivation_layers(report, tracer, counters);
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

Report trace_corpus_threads(const Args& args) {
  Report report;
  const auto all = registry_kernels();
  support::ThreadPool pool(kThreads);
  kernels::CorpusOptions options;
  options.threads = kThreads;
  options.executor = pool;

  // The first batch in a process runs slower; it is the warm-up and the
  // reference output, then counted and plain batches are timed alike.
  const kernels::CorpusReport plain =
      kernels::analyze_corpus_resilient(all, options);

  Tracer tracer;
  CountingExecutor counting(pool, tracer);
  kernels::CorpusOptions counted_options = options;
  counted_options.executor = counting;
  const Clock::time_point t_counted = Clock::now();
  kernels::CorpusReport counted;
  {
    Tracer::Scope span(tracer, "kernels.analyze_corpus_resilient", "batch");
    counted = kernels::analyze_corpus_resilient(all, counted_options);
  }
  const double counted_s = seconds_since(t_counted);
  const Clock::time_point t_plain = Clock::now();
  kernels::analyze_corpus_resilient(all, options);
  const double batch_s = seconds_since(t_plain);
  for (std::size_t i = 0; i < all.size(); ++i) {
    check_outcome(*all[i], counted.kernels[i], report);
    if (!same_outcome(plain.kernels[i], counted.kernels[i])) {
      report.mismatch(all[i]->name +
                      ": counting executor changed the batch output");
    }
  }

  // Serial per-kernel times give the work the batch spreads over the pool.
  double serial_ms = 0.0;
  double slowest_serial_ms = 0.0;
  const kernels::KernelEntry* slowest = all.front();
  for (const auto* entry : all) {
    const Clock::time_point t0 = Clock::now();
    Tracer::Scope span(tracer, "kernels.analyze_kernel_checked", entry->name);
    kernels::analyze_kernel_checked(*entry, 1, support::ExecutorRef::serial());
    const double ms = ms_since(t0);
    serial_ms += ms;
    if (ms > slowest_serial_ms) {
      slowest_serial_ms = ms;
      slowest = entry;
    }
  }
  const Clock::time_point t_slow = Clock::now();
  kernels::analyze_kernel_checked(*slowest, kThreads, pool);
  const double slowest_parallel_ms = ms_since(t_slow);
  std::printf("slowest kernel: %s (%.1f ms serial, %.1f ms at %zu threads); "
              "batch %.1f ms\n",
              slowest->name.c_str(), slowest_serial_ms, slowest_parallel_ms,
              kThreads, batch_s * 1e3);

  report.metric("symbolic.live_nodes_peak",
                static_cast<double>(counting.live_nodes_peak()), "count");
  report.metric("support.tasks", static_cast<double>(counting.tasks()),
                "count");
  report.metric("support.task_wait_ms", counting.wait_ms(), "ms");
  report.metric("support.task_busy_ms", counting.busy_ms(), "ms");
  report.metric("support.parallel_efficiency",
                serial_ms / (static_cast<double>(kThreads) * batch_s * 1e3),
                "ratio");
  report.metric("support.critical_path_share",
                slowest_parallel_ms / (batch_s * 1e3), "ratio");
  std::printf("trace overhead: counted batch %.3f s - plain batch %.3f s = "
              "%.3f s\n",
              counted_s, batch_s, counted_s - batch_s);
  report.metric("trace.overhead_s", counted_s - batch_s, "s");
  if (!tracer.write_chrome_json(args.trace_path)) {
    report.fail("cannot write " + args.trace_path);
  }
  return report;
}

}  // namespace

Report run_corpus_serial(const Args& args) {
  if (args.trace) return trace_corpus_serial(args);
  Report report;
  const double setup_s = measure_probe_setup(args, 1);
  const auto all = kernel_order(args.seed);
  std::vector<double> pass_s;
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> per_kernel;
  const Clock::time_point t_timed = Clock::now();
  do {
    const Clock::time_point t_pass = Clock::now();
    for (const auto* entry : all) {
      const Clock::time_point t0 = Clock::now();
      const kernels::KernelOutcome outcome = kernels::analyze_kernel_checked(
          *entry, 1, support::ExecutorRef::serial());
      const double ms = ms_since(t0);
      latency_ms.push_back(ms);
      per_kernel[entry->name].push_back(ms);
      check_outcome(*entry, outcome, report);
    }
    pass_s.push_back(seconds_since(t_pass));
  } while (seconds_since(t_timed) + median(pass_s) <= args.seconds);
  const double timed_s = seconds_since(t_timed);

  std::string slowest;
  const double slowest_ms = slowest_median(per_kernel, &slowest);
  std::printf("slowest kernel: %s %.1f ms\n", slowest.c_str(), slowest_ms);
  add_end_to_end(report, setup_s, median(pass_s), pass_s, latency_ms,
                 latency_ms.size(), timed_s, self_peak_rss_mb());
  return report;
}

Report run_corpus_threads(const Args& args) {
  if (args.trace) return trace_corpus_threads(args);
  Report report;
  const double setup_s = measure_probe_setup(args, kThreads);
  const auto all = registry_kernels();
  support::ThreadPool pool(kThreads);
  kernels::CorpusOptions options;
  options.threads = kThreads;
  options.executor = pool;
  std::vector<double> pass_s;
  std::vector<double> latency_ms;
  std::size_t items = 0;
  const Clock::time_point t_timed = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const kernels::CorpusReport batch =
        kernels::analyze_corpus_resilient(all, options);
    pass_s.push_back(seconds_since(t0));
    latency_ms.push_back(pass_s.back() * 1e3);
    for (std::size_t i = 0; i < all.size(); ++i) {
      check_outcome(*all[i], batch.kernels[i], report);
    }
    items += all.size();
  } while (seconds_since(t_timed) + median(pass_s) <= args.seconds);
  const double timed_s = seconds_since(t_timed);
  add_end_to_end(report, setup_s, median(pass_s), pass_s, latency_ms, items,
                 timed_s, self_peak_rss_mb());
  return report;
}

}  // namespace perfbench
