// SOAP encodings of the 30 Polybench kernels (Table 2, upper block).
//
// Each kernel is given as loop-nest source (parsed by the frontend) focused
// on its I/O-dominant statements — exactly the projection the paper's tool
// derives before the symbolic stage.  `paper_bound` is the Table 2 row;
// `expected_bound` is what this implementation derives (equal in all but the
// few documented cases, see EXPERIMENTS.md).
#include "kernels/table2.hpp"

namespace soap::kernels {

namespace {

using sym::Expr;

Expr sy(const char* n) { return Expr::symbol(n); }
Expr S() { return Expr::symbol("S"); }

KernelEntry src(std::string name, std::string source, Expr paper,
                Expr expected, std::string sota, std::string improvement,
                sdg::SdgOptions options = {}, std::string notes = "") {
  KernelEntry k;
  k.name = std::move(name);
  k.family = "polybench";
  k.source = std::move(source);
  k.paper_bound = std::move(paper);
  k.expected_bound = std::move(expected);
  k.sota = std::move(sota);
  k.improvement = std::move(improvement);
  k.options = options;
  k.notes = std::move(notes);
  return k;
}

sdg::SdgOptions singleton() {
  sdg::SdgOptions o;
  o.max_subgraph_size = 1;
  return o;
}

}  // namespace

std::vector<KernelEntry> polybench_kernels() {
  std::vector<KernelEntry> v;
  Expr N = sy("N"), M = sy("M"), T = sy("T");

  // --- dense linear algebra -------------------------------------------------
  v.push_back(src("gemm", R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)",
                  Expr(2) * N * N * N / sym::sqrt(S()),
                  Expr(2) * N * N * N / sym::sqrt(S()), "2N^3/sqrt(S)", "1"));

  v.push_back(src("2mm", R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      tmp[i,j] += A[i,k] * B[k,j]
for i in range(N):
  for j in range(N):
    for k in range(N):
      D[i,j] += tmp[i,k] * C[k,j]
)",
                  Expr(4) * N * N * N / sym::sqrt(S()),
                  Expr(4) * N * N * N / sym::sqrt(S()), "4N^3/sqrt(S)", "1"));

  v.push_back(src("3mm", R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      E[i,j] += A[i,k] * B[k,j]
for i in range(N):
  for j in range(N):
    for k in range(N):
      F[i,j] += C[i,k] * D[k,j]
for i in range(N):
  for j in range(N):
    for k in range(N):
      G[i,j] += E[i,k] * F[k,j]
)",
                  Expr(6) * N * N * N / sym::sqrt(S()),
                  Expr(6) * N * N * N / sym::sqrt(S()), "6N^3/sqrt(S)", "1"));

  v.push_back(src("lu", R"(
for k in range(N):
  for i in range(k + 1, N):
    for j in range(k + 1, N):
      A[i,j] = A[i,j] - A[i,k] * A[k,j] / A[k,k]
)",
                  Expr(2) * N * N * N / (Expr(3) * sym::sqrt(S())),
                  Expr(2) * N * N * N / (Expr(3) * sym::sqrt(S())),
                  "2N^3/(3 sqrt(S))", "1",
                  {}, "trailing update dominates; Section 5.1/5.2 projections"));

  v.push_back(src("ludcmp", R"(
for k in range(N):
  for i in range(k + 1, N):
    for j in range(k + 1, N):
      A[i,j] = A[i,j] - A[i,k] * A[k,j] / A[k,k]
)",
                  Expr(2) * N * N * N / (Expr(3) * sym::sqrt(S())),
                  Expr(2) * N * N * N / (Expr(3) * sym::sqrt(S())),
                  "2N^3/(3 sqrt(S))", "1", {},
                  "same dominant statement as lu"));

  v.push_back(src("cholesky", R"(
for i in range(N):
  for j in range(i):
    for k in range(j):
      A[i,j] = A[i,j] - A[i,k] * A[j,k]
)",
                  N * N * N / (Expr(3) * sym::sqrt(S())),
                  N * N * N / (Expr(3) * sym::sqrt(S())), "N^3/(6 sqrt(S))",
                  "2", {}, "paper improves the prior bound by 2x"));

  v.push_back(src("correlation", R"(
for i in range(M):
  for j in range(i, M):
    for k in range(N):
      corr[i,j] += data[k,i] * data[k,j]
)",
                  M * M * N / sym::sqrt(S()), M * M * N / sym::sqrt(S()),
                  "M^2 N/(2 sqrt(S))", "2"));

  v.push_back(src("covariance", R"(
for i in range(M):
  for j in range(i, M):
    for k in range(N):
      cov[i,j] += data[k,i] * data[k,j]
)",
                  M * M * N / sym::sqrt(S()), M * M * N / sym::sqrt(S()),
                  "M^2 N/(2 sqrt(S))", "2"));

  v.push_back(src("syrk", R"(
for i in range(N):
  for j in range(i):
    for k in range(M):
      C[i,j] += A[i,k] * A[j,k]
)",
                  M * N * N / sym::sqrt(S()), M * N * N / sym::sqrt(S()),
                  "M N^2/(2 sqrt(S))", "2"));

  v.push_back(src("syr2k", R"(
for i in range(N):
  for j in range(i):
    for k in range(M):
      C[i,j] += A[i,k] * B[j,k] + B[i,k] * A[j,k]
)",
                  Expr(2) * M * N * N / sym::sqrt(S()),
                  Expr(2) * M * N * N / sym::sqrt(S()), "M N^2/sqrt(S)", "2"));

  v.push_back(src("symm", R"(
for i in range(M):
  for j in range(N):
    for k in range(M):
      C[i,j] += A[i,k] * B[k,j]
)",
                  Expr(2) * M * M * N / sym::sqrt(S()),
                  Expr(2) * M * M * N / sym::sqrt(S()), "2M^2 N/sqrt(S)",
                  "1"));

  v.push_back(src("trmm", R"(
for i in range(M):
  for j in range(N):
    for k in range(i + 1, M):
      B[i,j] += A[k,i] * B[k,j]
)",
                  M * M * N / sym::sqrt(S()), M * M * N / sym::sqrt(S()),
                  "M^2 N/sqrt(S)", "1"));

  v.push_back(src("doitgen", R"(
for r in range(NR):
  for q in range(NQ):
    for p in range(NP):
      for s in range(NP):
        sum[r,q,p] += A[r,q,s] * C4[s,p]
)",
                  Expr(2) * sy("NP") * sy("NP") * sy("NQ") * sy("NR") /
                      sym::sqrt(S()),
                  Expr(2) * sy("NP") * sy("NP") * sy("NQ") * sy("NR") /
                      sym::sqrt(S()),
                  "2 NP^2 NQ NR/sqrt(S)", "1"));

  v.push_back(src("gramschmidt", R"(
for k in range(N):
  for j in range(k + 1, N):
    for i in range(M):
      R[k,j] += Q[i,k] * A[i,j]
)",
                  M * N * N / sym::sqrt(S()), M * N * N / sym::sqrt(S()),
                  "M N^2/sqrt(S)", "1"));

  // --- BLAS-2 style / solvers -------------------------------------------------
  v.push_back(src("atax", R"(
for i in range(M):
  for j in range(N):
    tmp[i] += A[i,j] * x[j]
for i in range(M):
  for j in range(N):
    y[j] += A[i,j] * tmp[i]
)",
                  M * N, M * N, "M N", "1"));

  v.push_back(src("bicg", R"(
for i in range(M):
  for j in range(N):
    s[j] += r[i] * A[i,j]
for i in range(M):
  for j in range(N):
    q[i] += A[i,j] * p[j]
)",
                  M * N, M * N, "M N", "1"));

  v.push_back(src("mvt", R"(
for i in range(N):
  for j in range(N):
    x1[i] += A[i,j] * y1[j]
for i in range(N):
  for j in range(N):
    x2[i] += A[j,i] * y2[j]
)",
                  N * N, N * N, "N^2", "1"));

  v.push_back(src("gemver", R"(
for i in range(N):
  for j in range(N):
    Ah[i,j] = A[i,j] + u1[i] * v1[j] + u2[i] * v2[j]
for i in range(N):
  for j in range(N):
    x[i] += Ah[j,i] * y[j]
for i in range(N):
  for j in range(N):
    w[i] += Ah[i,j] * x[j]
)",
                  N * N, N * N, "N^2", "1"));

  v.push_back(src("gesummv", R"(
for i in range(N):
  for j in range(N):
    tmp[i] += A[i,j] * x[j]
for i in range(N):
  for j in range(N):
    y[i] += B[i,j] * x[j]
)",
                  Expr(2) * N * N, Expr(2) * N * N, "2N^2", "1"));

  v.push_back(src("trisolv", R"(
for i in range(N):
  for j in range(i):
    x[i] -= L[i,j] * x[j]
)",
                  N * N / Expr(2), N * N / Expr(2), "N^2/2", "1"));

  v.push_back(src("durbin", R"(
for k in range(N):
  for i in range(k):
    z[i,k] = y[k - 1 - i, k]
for k in range(N):
  for i in range(k):
    w[i,k] = z[k - 1 - i, k]
for k in range(N):
  for i in range(k):
    yn[i,k] = w[k - 1 - i, k]
)",
                  Expr(3) * N * N / Expr(2), Expr(3) * N * N / Expr(2),
                  "N^2/2", "3", singleton(),
                  "three reversal passes over the triangular iteration space; "
                  "per-statement accounting as in the paper (fusing the "
                  "reversal chain is prevented by the loop-carried "
                  "dependencies the relaxed model drops)"));

  v.push_back(src("deriche", R"(
for i in range(W):
  for j in range(H):
    y1[i,j] = img[i,j]
for i in range(W):
  for j in range(H):
    y2[i,j] = y1[i,j]
for i in range(W):
  for j in range(H):
    out[i,j] = y2[i,j]
)",
                  Expr(3) * sy("H") * sy("W"), Expr(3) * sy("H") * sy("W"),
                  "H W", "3", singleton(),
                  "three recursive-filter passes over the image; "
                  "per-statement accounting as in the paper"));

  // --- stencils ---------------------------------------------------------------
  v.push_back(src("jacobi1d", R"(
for t in range(T):
  for i in range(1, N - 1):
    A[i,t+1] = A[i-1,t] + A[i,t] + A[i+1,t]
)",
                  Expr(2) * N * T / S(), Expr(2) * N * T / S(), "N T/(4S)",
                  "8", {}, "time-expanded self-stencil (Section 5.2)"));

  v.push_back(src("jacobi2d", R"(
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      A[i,j,t+1] = A[i,j,t] + A[i-1,j,t] + A[i+1,j,t] + A[i,j-1,t] + A[i,j+1,t]
)",
                  Expr(4) * N * N * T / sym::sqrt(S()),
                  Expr(4) * N * N * T / sym::sqrt(S()),
                  "2 N^2 T/(3 sqrt(3S))", "6 sqrt(3)"));

  v.push_back(src("seidel2d", R"(
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      A[i,j,t+1] = A[i-1,j-1,t] + A[i-1,j,t] + A[i-1,j+1,t] + A[i,j-1,t] + A[i,j,t] + A[i,j+1,t] + A[i+1,j-1,t] + A[i+1,j,t] + A[i+1,j+1,t]
)",
                  Expr(4) * N * N * T / sym::sqrt(S()),
                  Expr(4) * N * N * T / sym::sqrt(S()),
                  "2 N^2 T/(3 sqrt(3S))", "6 sqrt(3)"));

  v.push_back(src("heat3d", R"(
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      for k in range(1, N - 1):
        A[i,j,k,t+1] = A[i,j,k,t] + A[i-1,j,k,t] + A[i+1,j,k,t] + A[i,j-1,k,t] + A[i,j+1,k,t] + A[i,j,k-1,t] + A[i,j,k+1,t]
)",
                  Expr(6) * N * N * N * T / sym::cbrt(S()),
                  Expr(6) * N * N * N * T / sym::cbrt(S()),
                  "9 N^3 T/(16 cbrt(3S))", "32/(3 cbrt(3))"));

  v.push_back(src("fdtd2d", R"(
for t in range(T):
  for i in range(1, NX):
    for j in range(NY):
      ey[i,j,t+1] = ey[i,j,t] - hz[i,j,t] + hz[i-1,j,t]
for t in range(T):
  for i in range(NX):
    for j in range(1, NY):
      ex[i,j,t+1] = ex[i,j,t] - hz[i,j,t] + hz[i,j-1,t]
for t in range(T):
  for i in range(NX):
    for j in range(NY):
      hz[i,j,t+1] = hz[i,j,t] - ex[i,j+1,t+1] + ex[i,j,t+1] - ey[i+1,j,t+1] + ey[i,j,t+1]
)",
                  Expr(2) * sym::sqrt(Expr(3)) * sy("NX") * sy("NY") * T /
                      sym::sqrt(S()),
                  Expr(4) * sym::sqrt(Expr(3)) * sy("NX") * sy("NY") * T /
                      sym::sqrt(S()),
                  "NX NY T/(3 sqrt(6S))", "6 sqrt(6)", {},
                  "our merged-subgraph optimum yields 4 sqrt(3) NX NY T/"
                  "sqrt(S), a factor 2 above the paper's published constant; "
                  "see EXPERIMENTS.md"));

  v.push_back(src("adi", R"(
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      v[i,j,t] = u[i-1,j,t] + u[i,j,t] + u[i+1,j,t] + v[i,j-1,t]
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      u[i,j,t+1] = v[i,j-1,t] + v[i,j,t] + v[i,j+1,t] + u[i-1,j,t+1]
)",
                  Expr(12) * N * N * T / sym::sqrt(S()),
                  Expr(4) * N * N * T / sym::sqrt(S()), "N^2 T", "12/sqrt(S)",
                  {},
                  "column/row sweeps with time-relaxed dependencies; the "
                  "paper models the full tridiagonal solver (more arrays), "
                  "our two-array projection yields 4 N^2 T/sqrt(S); both "
                  "detect the time-tiling the paper highlights"));

  v.push_back(src("floyd_warshall", R"(
for k in range(N):
  for i in range(N):
    for j in range(N):
      path[i,j] = path[i,j] + path[i,k] * path[k,j]
)",
                  Expr(2) * N * N * N / sym::sqrt(S()),
                  Expr(2) * N * N * N / sym::sqrt(S()), "N^3/sqrt(S)", "2"));

  v.push_back(src("nussinov", R"(
for i in range(N):
  for j in range(i + 1, N):
    for k in range(i + 1, j):
      table[i,j] = table[i,j] + table[i,k] * table[k,j]
)",
                  N * N * N / (Expr(3) * sym::sqrt(S())),
                  N * N * N / (Expr(3) * sym::sqrt(S())),
                  "N^3/(6 sqrt(S))", "2"));

  return v;
}

}  // namespace soap::kernels
