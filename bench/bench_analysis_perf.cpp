// Experiment V-perf: end-to-end analysis latency per corpus application
// (google-benchmark), plus a per-backend sweep (docs/OPTIMIZER.md) so the
// cost of multistart's extra restarts and subplex's coordinate descent is
// tracked next to the default pipeline.
#include <benchmark/benchmark.h>

#include "bounds/opt/types.hpp"
#include "kernels/table2.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  for (const char* name :
       {"gemm", "cholesky", "jacobi2d", "heat3d", "fdtd2d", "atax",
        "gemver", "conv", "bert_encoder", "lulesh"}) {
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
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
