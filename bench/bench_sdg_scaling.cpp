// Experiment V-scale: analysis cost vs program size (the paper reports its
// approach scales to ~35 statements), plus the thread sweeps of the SDG
// subgraph fan-out and the sharded pebble-game validation path.
// google-benchmark over synthetic statement chains, the Table 2 corpus
// batch, and a batch of pebbling validation cases.
#include <benchmark/benchmark.h>

#include "frontend/lower.hpp"
#include "kernels/table2.hpp"
#include "pebbles/validate.hpp"
#include "sdg/multi_statement.hpp"
#include "sdg/subgraph.hpp"

namespace {

soap::Program chain_program(int statements) {
  std::string src;
  std::string prev = "a0";
  for (int i = 1; i <= statements; ++i) {
    std::string cur = "a" + std::to_string(i);
    src += "for i in range(N):\n  for j in range(N):\n    " + cur +
           "[i,j] = " + prev + "[i,j]\n";
    prev = cur;
  }
  return soap::frontend::parse_program(src);
}

void BM_SdgAnalysisChain(benchmark::State& state) {
  soap::Program p = chain_program(static_cast<int>(state.range(0)));
  soap::sdg::SdgOptions opt;
  opt.max_subgraph_size = 3;
  for (auto _ : state) {
    auto b = soap::sdg::multi_statement_bound(p, opt);
    benchmark::DoNotOptimize(b);
  }
  state.counters["statements"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SdgAnalysisChain)->Arg(5)->Arg(10)->Arg(20)->Arg(35);

// The thread sweep of the same end-to-end path: per-subgraph work sharded
// across SdgOptions::threads workers, output bit-identical at every count.
void BM_SdgAnalysisChainThreads(benchmark::State& state) {
  soap::Program p = chain_program(static_cast<int>(state.range(0)));
  soap::sdg::SdgOptions opt;
  opt.max_subgraph_size = 3;
  opt.threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto b = soap::sdg::multi_statement_bound(p, opt);
    benchmark::DoNotOptimize(b);
  }
  state.counters["statements"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SdgAnalysisChainThreads)
    ->Name("BM_SdgAnalysisChain")
    ->ArgNames({"", "threads"})
    ->ArgsProduct({{35}, {1, 2, 4, 8}});

void BM_SubgraphEnumeration(benchmark::State& state) {
  soap::Program p = chain_program(static_cast<int>(state.range(0)));
  soap::sdg::Sdg g = soap::sdg::Sdg::build(p);
  std::size_t count = 0;
  for (auto _ : state) {
    auto subs = soap::sdg::enumerate_subgraphs(g, 3);
    count = subs.size();
    benchmark::DoNotOptimize(subs);
  }
  state.counters["subgraphs"] = static_cast<double>(count);
}
BENCHMARK(BM_SubgraphEnumeration)->Arg(10)->Arg(20)->Arg(35);

// The 38-application corpus analyzed as one analyze_corpus_resilient batch:
// kernels claimed concurrently, each kernel's subgraphs fanned out over the
// same pool — the deployment shape of the Table 2 drivers.
void BM_Table2CorpusBatch(benchmark::State& state) {
  // Pinned to the original 38 Table 2 rows (not the full registry) so the
  // number stays comparable with the committed baselines across PRs.
  const auto kernels = soap::kernels::table2_kernels();
  soap::kernels::CorpusOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto report = soap::kernels::analyze_corpus_resilient(kernels, options);
    if (report.worst_status() != soap::support::StatusCode::kOk) {
      state.SkipWithError(report.failure_summary().c_str());
      break;
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["kernels"] = static_cast<double>(kernels.size());
}
BENCHMARK(BM_Table2CorpusBatch)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The sharded pebble-game validation path: Belady schedule generation +
// game replay for one CDAG across a sweep of cache sizes, fanned over the
// pool (pebbles::validate_schedules); results are slot-per-case, so the
// outcome is identical for every thread count.
void BM_PebbleValidation(benchmark::State& state) {
  soap::Program p = soap::frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  soap::pebbles::Cdag cdag = soap::pebbles::instantiate(p, {{"N", 6}});
  std::vector<soap::pebbles::PebbleCase> cases;
  for (std::size_t S = 4; S <= 40; S += 2) cases.push_back({&cdag, S});
  soap::support::ParallelOptions shard;
  shard.threads = static_cast<std::size_t>(state.range(0));
  std::size_t consistent = 0;
  for (auto _ : state) {
    auto results = soap::pebbles::validate_schedules(
        cases, soap::pebbles::Replacement::kBelady, shard);
    consistent = 0;
    for (const auto& r : results) consistent += r.consistent() ? 1 : 0;
    benchmark::DoNotOptimize(results);
  }
  state.counters["cases"] = static_cast<double>(cases.size());
  state.counters["consistent"] = static_cast<double>(consistent);
}
BENCHMARK(BM_PebbleValidation)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
