// Experiment V-peb: machine-checks the framework of Section 2 on explicit
// CDAGs — analytic lower bound <= exhaustive optimal pebbling <= scheduled
// (Belady) pebbling, with the scheduled pebbling additionally replayed
// through the game rules (run_pebbling) as an independent validity check.
//
// The whole validation path is sharded: CDAG instantiation, the optimal
// oracle, and schedule+replay all fan (kernel x cache-size) cases across
// the shared pool via pebbles/validate.hpp (--threads N; default 1 =
// serial).  Results land in per-case slots and the report is printed in
// case order, so the output is byte-identical for every thread count.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_flags.hpp"
#include "bounds/single_statement.hpp"
#include "frontend/lower.hpp"
#include "pebbles/validate.hpp"

using namespace soap;

namespace {

struct ValidationSpec {
  const char* name;
  const char* src;
  std::map<std::string, long long> params;
  std::vector<std::size_t> cache_sizes;
};

int run(const std::vector<ValidationSpec>& specs, std::size_t threads) {
  support::ParallelOptions shard;
  shard.threads = threads;

  // Stage 1: parse + analytic bounds (cheap, serial), then instantiate
  // every kernel's CDAG as one sharded batch.
  std::vector<Program> programs;
  std::vector<std::optional<bounds::IoLowerBound>> analytic;
  std::vector<pebbles::InstantiationJob> jobs;
  programs.reserve(specs.size());
  for (const ValidationSpec& spec : specs) {
    programs.push_back(frontend::parse_program(spec.src));
    analytic.push_back(bounds::single_statement_bound(
        programs.back().statements[0]));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    jobs.push_back({&programs[i], specs[i].params});
  }
  std::vector<pebbles::Cdag> cdags = pebbles::instantiate_batch(jobs, {},
                                                                shard);

  // Stage 2: flatten to (kernel, S) cases and shard the two expensive
  // machine checks — the exhaustive optimal oracle and the Belady schedule
  // with its game replay.
  std::vector<pebbles::PebbleCase> cases;
  std::vector<std::size_t> case_spec;  // case index -> spec index
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t S : specs[i].cache_sizes) {
      cases.push_back({&cdags[i], S});
      case_spec.push_back(i);
    }
  }
  std::vector<std::optional<pebbles::OptimalResult>> optimal =
      pebbles::optimal_pebblings(cases, {}, shard);
  std::vector<pebbles::ScheduleValidation> belady =
      pebbles::validate_schedules(cases, pebbles::Replacement::kBelady, shard);

  // Stage 3: report in case order.
  int violations = 0;
  std::size_t last_spec = static_cast<std::size_t>(-1);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::size_t i = case_spec[c];
    if (i != last_spec) {
      std::printf("%s (|V| = %zu):\n", specs[i].name, cdags[i].size());
      last_spec = i;
    }
    std::map<std::string, double> env = {
        {"S", static_cast<double>(cases[c].S)}};
    for (const auto& [k, v] : specs[i].params) {
      env[k] = static_cast<double>(v);
    }
    double analytic_value = analytic[i] ? analytic[i]->Q.eval(env) : 0.0;
    const pebbles::ScheduleValidation& v = belady[c];
    std::printf(
        "  S=%2zu  analytic >= %7.2f   optimal = %s   belady = %s   "
        "replay: %s\n",
        cases[c].S, analytic_value,
        optimal[c] ? std::to_string(optimal[c]->cost).c_str()
                   : "(search capped)",
        v.scheduled ? std::to_string(v.schedule.io_cost).c_str() : "-",
        v.scheduled ? (v.consistent() ? "valid" : "INVALID") : "-");
    if (optimal[c] &&
        analytic_value > static_cast<double>(optimal[c]->cost) + 1e-9) {
      std::printf("  !! SOUNDNESS VIOLATION\n");
      ++violations;
    }
    if (v.scheduled && !v.consistent()) {
      std::printf("  !! REPLAY MISMATCH: %s\n", v.replay.error.c_str());
      ++violations;
    }
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Red-blue pebble game validation (Section 2) ===\n");
  std::size_t threads = soap::bench::threads_requested(argc, argv);
  std::vector<ValidationSpec> specs = {
      {"gemm N=2", R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)",
       {{"N", 2}}, {4, 5, 6}},
  };
  // --smoke (CTest bench-smoke): the gemm case alone exercises the full
  // analytic/optimal/scheduled/replay pipeline; the remaining CDAGs are too
  // slow for sanitizer runs.
  if (!soap::bench::smoke_requested(argc, argv)) {
    specs.push_back({"jacobi1d N=4 T=2", R"(
for t in range(T):
  for i in range(1, N - 1):
    A[i,t+1] = A[i-1,t] + A[i,t] + A[i+1,t]
)",
                     {{"N", 4}, {"T", 2}}, {4, 5}});
    specs.push_back({"outer product N=3", R"(
for i in range(N):
  for j in range(N):
    C[i,j] = A[i] * B[j]
)",
                     {{"N", 3}}, {3, 4, 6}});
  }
  return run(specs, threads);
}
