// Experiment V-perf: end-to-end analysis latency per corpus application
// (google-benchmark), plus a per-backend sweep (docs/OPTIMIZER.md) so the
// cost of multistart's extra restarts and subplex's coordinate descent is
// tracked next to the default pipeline, and the attainment replay alone
// (tiled trace generation + LRU + Belady, no derivation; docs/ATTAINMENT.md).
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bounds/opt/types.hpp"
#include "cachesim/cache.hpp"
#include "kernels/table2.hpp"
#include "schedule/trace.hpp"
#include "sdg/multi_statement.hpp"

namespace {

void BM_AnalyzeKernel(benchmark::State& state, const std::string& name) {
  const auto& k = soap::kernels::kernel_by_name(name);
  for (auto _ : state) {
    auto bound = soap::kernels::analyze_kernel(k);
    benchmark::DoNotOptimize(bound);
  }
}

void BM_AnalyzeKernelBackend(benchmark::State& state, const std::string& name,
                             soap::bounds::opt::BackendKind backend) {
  const auto& k = soap::kernels::kernel_by_name(name);
  soap::sdg::SdgOptions options = k.options;
  options.threads = 1;
  options.optimizer = backend;
  for (auto _ : state) {
    auto bound = soap::sdg::multi_statement_bound(k.build(), options);
    benchmark::DoNotOptimize(bound);
  }
}

// One attainment row's simulated side at fixed sizes and tiles: build the
// tiled trace of every statement, then replay it under LRU and Belady.
void BM_TiledTraceSim(benchmark::State& state, const std::string& name,
                      const std::map<std::string, long long>& params,
                      const std::map<std::string, long long>& tiles) {
  const soap::Program program = soap::kernels::kernel_by_name(name).build();
  constexpr std::size_t kCacheSize = 96;
  std::size_t accesses = 0;
  for (auto _ : state) {
    for (const soap::Statement& st : program.statements) {
      soap::schedule::TraceBuilder builder;
      builder.append_tiled(st, params, tiles);
      accesses += builder.trace().size();
      benchmark::DoNotOptimize(
          soap::cachesim::simulate_lru(builder.trace(), kCacheSize));
      benchmark::DoNotOptimize(
          soap::cachesim::simulate_belady(builder.trace(), kCacheSize));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name :
       {"gemm", "cholesky", "jacobi2d", "heat3d", "fdtd2d", "atax",
        "gemver", "conv", "bert_encoder", "lulesh", "flash_attention",
        "horizontal_diffusion"}) {
    benchmark::RegisterBenchmark(("BM_Analyze/" + std::string(name)).c_str(),
                                 BM_AnalyzeKernel, std::string(name));
  }
  // Backend sweep over a small latency-diverse slice: a compute kernel, a
  // stencil, and the long-tail neural row.  (The bench-smoke filter `gemm`
  // matches the gemm sweep, so all three backends run in CI.)
  for (const char* name : {"gemm", "jacobi2d", "bert_encoder"}) {
    for (soap::bounds::opt::BackendKind backend :
         {soap::bounds::opt::BackendKind::kNelderMead,
          soap::bounds::opt::BackendKind::kMultistart,
          soap::bounds::opt::BackendKind::kSubplex}) {
      benchmark::RegisterBenchmark(
          ("BM_AnalyzeBackend/" + std::string(name) + "/" +
           soap::bounds::opt::backend_name(backend))
              .c_str(),
          BM_AnalyzeKernelBackend, std::string(name), backend);
    }
  }
  // The attainment table's default sizes for these kernels, with fixed
  // tiles (gemm's at its S = 96 optimum, sqrt(96/3) rounded).
  benchmark::RegisterBenchmark("BM_TiledTraceSim/gemm", BM_TiledTraceSim,
                               std::string("gemm"),
                               std::map<std::string, long long>{{"N", 27}},
                               std::map<std::string, long long>{
                                   {"i", 6}, {"j", 6}, {"k", 6}});
  benchmark::RegisterBenchmark(
      "BM_TiledTraceSim/jacobi2d", BM_TiledTraceSim, std::string("jacobi2d"),
      std::map<std::string, long long>{{"N", 27}, {"T", 27}},
      std::map<std::string, long long>{{"t", 3}, {"i", 6}, {"j", 6}});
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
