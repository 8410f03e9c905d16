// Experiment V-tile: the derived tilings are I/O-near-optimal — simulated
// misses of the tiled schedule approach the analytic lower bound while the
// untiled order is far above it (Section 4.5's compiler guideline).
#include <cstdio>
#include <vector>

#include "bench_flags.hpp"
#include "bounds/single_statement.hpp"
#include "cachesim/sim.hpp"
#include "frontend/lower.hpp"
#include "schedule/codegen.hpp"
#include "schedule/tiling.hpp"

using namespace soap;

namespace {

void sweep(const char* name, const char* src,
           const std::map<std::string, long long>& params,
           const std::vector<long long>& cache_sizes) {
  Program p = frontend::parse_program(src);
  auto b = bounds::single_statement_bound(p.statements[0]);
  if (!b) return;
  std::printf("\n%s: Q >= %s\n", name, b->Q_leading.str().c_str());
  std::printf("  %6s | %8s | %12s | %12s | %12s | %12s | %s\n", "S", "tile",
              "untiled LRU", "tiled LRU", "tiled Belady", "lower bound",
              "tiled/bound");
  for (long long S : cache_sizes) {
    auto tiles = schedule::concrete_tiles(p.statements[0], *b, S, params);
    auto untiled = cachesim::measure_statement(p.statements[0], params, {},
                                               static_cast<std::size_t>(S));
    auto tiled = cachesim::measure_statement(p.statements[0], params, tiles,
                                             static_cast<std::size_t>(S));
    SymMap<double> env = {{"S", static_cast<double>(S)}};
    for (const auto& [k, v] : params) env.set(k, static_cast<double>(v));
    double lower = b->Q.eval(env);
    long long tile0 = tiles.begin()->second;
    std::printf("  %6lld | %8lld | %12lld | %12lld | %12lld | %12.0f | %.2fx\n",
                S, tile0, untiled.lru.io(), tiled.lru.io(), tiled.belady.io(),
                lower, static_cast<double>(tiled.belady.io()) / lower);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke (CTest bench-smoke): one gemm cache size plus the codegen print
  // below; the full sweeps simulate millions of accesses and are too slow
  // for sanitizer runs.
  bool smoke = soap::bench::smoke_requested(argc, argv);
  std::printf("=== Tiled schedules vs analytic lower bounds (cache sim) ===\n");
  sweep("gemm N=48", R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)",
        {{"N", 48}}, smoke ? std::vector<long long>{108}
                           : std::vector<long long>{108, 192, 300, 768});
  if (!smoke) sweep("jacobi2d N=40 T=12", R"(
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      A[i,j,t+1] = A[i,j,t] + A[i-1,j,t] + A[i+1,j,t] + A[i,j-1,t] + A[i,j+1,t]
)",
        {{"N", 40}, {"T", 12}}, {128, 256, 512});
  std::printf("\nGenerated tiled code for gemm (S = 768):\n%s\n", [] {
    Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
    auto b = bounds::single_statement_bound(p.statements[0]);
    auto tiles = schedule::concrete_tiles(p.statements[0], *b, 768,
                                          {{"N", 4096}});
    return schedule::emit_tiled_c(p.statements[0], tiles);
  }().c_str());
  return 0;
}
