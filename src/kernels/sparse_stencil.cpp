// The sparse_stencil family: post-paper workloads whose access patterns
// leave the pure affine world, defined through the frontend DSL and
// listed in the corpus registry.
//
//   * spmv_csr      — CSR sparse matrix-vector product in the uniform-row
//                     model (M rows, K stored entries per row).  The
//                     gather `x[colind[i,k]]` is a data-dependent
//                     subscript: the frontend collapses it to a single
//                     representative location (sound for lower bounds — an
//                     adversarial column index stream can hit one element)
//                     and charges the index array `colind` in full, so the
//                     mandatory traffic is the two streamed nnz-sized
//                     arrays: 2 M K.
//   * stencil_sweep — a two-stage jacobi-2d-style sweep (two chained
//                     5-point stars) analyzed with fused subgraphs and the
//                     cold bound: the intermediate field is recomputable
//                     inside a tile, so only the input and output fields
//                     are charged — the same recomputation argument as the
//                     COSMO horizontal diffusion row.
//
// Each entry records its closed-form expected leading-order bound, pinned
// by the golden tests (tests/support/table2_golden.cpp).
#include "kernels/table2.hpp"

namespace soap::kernels {

namespace {

using sym::Expr;

Expr sy(const char* n) { return Expr::symbol(n); }

}  // namespace

std::vector<KernelEntry> sparse_stencil_kernels() {
  std::vector<KernelEntry> v;
  Expr M = sy("M"), K = sy("K"), N = sy("N");

  {
    KernelEntry k;
    k.name = "spmv_csr";
    k.family = "sparse_stencil";
    k.source = R"(
for i in range(M):
  for k in range(K):
    y[i] += val[i,k] * x[colind[i,k]]
)";
    Expr bound = Expr(2) * M * K;
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (outside the polyhedral model)";
    k.improvement = "-";
    k.options.use_cold_bound = true;
    k.notes =
        "uniform-row CSR model (nnz = M K); val and colind stream once "
        "with no reuse, the data-dependent x gather is collapsed to the "
        "adversarial single-element case; the row-pointer array adds a "
        "lower-order M + 1";
    v.push_back(std::move(k));
  }

  {
    KernelEntry k;
    k.name = "stencil_sweep";
    k.family = "sparse_stencil";
    k.source = R"(
for i in range(1, N - 1):
  for j in range(1, N - 1):
    tmp[i,j] = inp[i-1,j] + inp[i+1,j] + inp[i,j-1] + inp[i,j+1] + inp[i,j]
for i in range(1, N - 1):
  for j in range(1, N - 1):
    outp[i,j] = tmp[i-1,j] + tmp[i+1,j] + tmp[i,j-1] + tmp[i,j+1] + tmp[i,j]
)";
    Expr bound = Expr(2) * N * N;
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "4 N^2 (per-pass accounting of the two sweeps)";
    k.improvement = "2";
    k.options.use_cold_bound = true;
    k.notes =
        "two chained 5-point stars: tmp is recomputable inside a fused "
        "tile, so only inp and outp are charged (cold bound), the "
        "horizontal-diffusion recomputation argument on a jacobi-2d shape";
    v.push_back(std::move(k));
  }

  return v;
}

}  // namespace soap::kernels
