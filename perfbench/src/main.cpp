// The benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --analyzed PATH --trace-file PATH
//     runs one workload and prints, as its last line, one JSON object with
//     `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//     with --trace 0, per-layer metrics with --trace 1).  Exits 1 when any
//     output differs from its reference or any operation failed.
//
//   perfbench --ready N
//     the set-up probe: materializes the kernel registry and a pool of N
//     workers, prints "ready" and exits.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "kernels/registry.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --analyzed PATH --trace-file PATH\n"
               "       perfbench --ready THREADS\n"
               "workloads: corpus_serial corpus_threads serve_mixed "
               "attainment_sim\n");
  return 2;
}

std::string self_path() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  return std::string(buf, static_cast<std::size_t>(n));
}

int ready(const char* threads_arg) {
  const long threads = std::strtol(threads_arg, nullptr, 10);
  (void)soap::kernels::Registry::instance().kernels();
  std::optional<soap::support::ThreadPool> pool;
  if (threads > 1) pool.emplace(static_cast<std::size_t>(threads));
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

void print_result(const Report& report) {
  for (const std::string& problem : report.problems) {
    std::printf("%s\n", problem.c_str());
  }
  // Correctness counters print beside the metrics; they are 0 on a healthy
  // build, so they are reported here rather than as gated metrics.
  std::printf("metric wrong_outputs %zu count\n", report.wrong);
  std::printf("metric failed_share %.6g ratio (%zu failed of %zu attempted)\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              report.failed, report.attempted);
  for (const auto& [name, value] : report.metrics) {
    std::printf("metric %s %.9g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.wrong == 0 && report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", value.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + value.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--ready") == 0) return ready(argv[2]);
  Args args;
  args.self_path = self_path();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--analyzed") {
      args.analyzed_path = value;
    } else if (key == "--trace-file") {
      args.trace_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0 || args.analyzed_path.empty() ||
      args.trace_path.empty()) {
    return usage();
  }
  Report report;
  try {
    if (args.workload == "corpus_serial") {
      report = perfbench::run_corpus_serial(args);
    } else if (args.workload == "corpus_threads") {
      report = perfbench::run_corpus_threads(args);
    } else if (args.workload == "serve_mixed") {
      report = perfbench::run_serve_mixed(args);
    } else if (args.workload == "attainment_sim") {
      report = perfbench::run_attainment_sim(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace) perfbench::complete_per_layer(report);
  print_result(report);
  return report.wrong == 0 && report.failed == 0 ? 0 : 1;
}
