// Deep-learning workloads of Table 2: direct convolution, softmax, MLP,
// LeNet-5, BERT encoder.
#include "kernels/table2.hpp"

namespace soap::kernels {

namespace {

using sym::Expr;

Expr sy(const char* n) { return Expr::symbol(n); }
Expr S() { return Expr::symbol("S"); }

sdg::SdgOptions singleton() {
  sdg::SdgOptions o;
  o.max_subgraph_size = 1;
  return o;
}

}  // namespace

std::vector<KernelEntry> neural_kernels() {
  std::vector<KernelEntry> v;
  Expr B = sy("B"), Cin = sy("Cin"), Cout = sy("Cout");
  Expr Hout = sy("Hout"), Wout = sy("Wout"), Hker = sy("Hker"),
       Wker = sy("Wker");

  {
    // Direct convolution, Example 6 / Section 5.3.  The sigma >= kernel-size
    // case (1): the image access is injective and the bound matches the
    // paper's 2 Cin Cout Hout Wout Hker Wker B / sqrt(S) (8x over Zhang et
    // al.).  bench_table2_nn additionally reports the sigma = 1 maximal-
    // overlap case (2) with its conditional intensity, mirroring Example 6.
    KernelEntry k;
    k.name = "conv";
    k.family = "neural";
    k.source = R"(
for b in range(B):
  for c in range(Cin):
    for k in range(Cout):
      for h in range(Hout):
        for w in range(Wout):
          for r in range(Hker):
            for s in range(Wker):
              Out[k,h,w,b] += Img[r + 7*h, s + 7*w, c, b] * F[k,r,s,c]
)";
    Expr bound = Expr(2) * B * Cin * Cout * Hout * Wout * Hker * Wker /
                 sym::sqrt(S());
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "Cin Cout Hout Wout Hker Wker B/(4 sqrt(S)) (Zhang et al.)";
    k.improvement = "8";
    k.notes =
        "case (1) of Example 6 (stride >= kernel extent, injective); the "
        "sigma=1 case is reported as a conditional bound by the bench";
    v.push_back(std::move(k));
  }

  {
    // Softmax: four streaming passes over the B x H x M x N tensor
    // (row max, shifted exp, row sum, normalize).
    KernelEntry k;
    k.name = "softmax";
    k.family = "neural";
    k.source = R"(
for b in range(B):
  for h in range(H):
    for m in range(M):
      for n in range(N):
        mx[b,h,m] = max(mx[b,h,m], x[b,h,m,n])
for b in range(B):
  for h in range(H):
    for m in range(M):
      for n in range(N):
        e[b,h,m,n] = exp(x[b,h,m,n] - mx[b,h,m])
for b in range(B):
  for h in range(H):
    for m in range(M):
      for n in range(N):
        sm[b,h,m] += e[b,h,m,n]
for b in range(B):
  for h in range(H):
    for m in range(M):
      for n in range(N):
        out[b,h,m,n] = e[b,h,m,n] / sm[b,h,m]
)";
    Expr bound = Expr(4) * sy("B") * sy("H") * sy("M") * sy("N");
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (first bound)";
    k.improvement = "-";
    k.options = singleton();
    k.notes =
        "per-pass accounting as published; an online-softmax fusion "
        "(recomputation) would lower the achievable I/O, see EXPERIMENTS.md";
    v.push_back(std::move(k));
  }

  {
    // MLP: three dense layers  inp -> fc1 -> fc2 -> out over batch Nb.
    KernelEntry k;
    k.name = "mlp";
    k.family = "neural";
    k.source = R"(
for n in range(Nb):
  for j in range(F1):
    for k in range(Inp):
      h1[n,j] += x[n,k] * W1[k,j]
for n in range(Nb):
  for j in range(F2):
    for k in range(F1):
      h2[n,j] += h1[n,k] * W2[k,j]
for n in range(Nb):
  for j in range(Outd):
    for k in range(F2):
      o[n,j] += h2[n,k] * W3[k,j]
)";
    Expr Nb = sy("Nb"), F1 = sy("F1"), F2 = sy("F2"), Inp = sy("Inp"),
         Outd = sy("Outd");
    Expr bound =
        Expr(2) * Nb * (F1 * F2 + F1 * Inp + F2 * Outd) / sym::sqrt(S());
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (first bound)";
    k.improvement = "-";
    v.push_back(std::move(k));
  }

  {
    // LeNet-5: the I/O-dominant first convolution (6 output channels, 5x5
    // kernels) over a C x H x W x N input batch gives 2*6*25 = 300 CHNW /
    // sqrt(S); the paper's published constant carries an extra sqrt(2) from
    // its pooling-stride sub-case analysis (EXPERIMENTS.md).
    KernelEntry k;
    k.name = "lenet5";
    k.family = "neural";
    k.source = R"(
for n in range(N):
  for c in range(C):
    for k in range(6):
      for h in range(H):
        for w in range(W):
          for r in range(5):
            for s in range(5):
              Out[k,h,w,n] += Img[r + 5*h, s + 5*w, c, n] * F[k,r,s,c]
)";
    Expr C = sy("C"), H = sy("H"), N = sy("N"), W = sy("W");
    k.paper_bound = Expr(300) * sym::sqrt(Expr(2)) * C * H * N * W /
                    sym::sqrt(S());
    k.expected_bound = Expr(300) * C * H * N * W / sym::sqrt(S());
    k.sota = "- (first bound)";
    k.improvement = "-";
    k.options = singleton();
    k.notes = "dominant conv layer; constant factor sqrt(2) below the paper";
    v.push_back(std::move(k));
  }

  {
    // BERT encoder: four E x E projections (E = H*P) plus the two L x L x P
    // attention contractions per head; summing the per-matmul bounds gives
    // exactly the paper's 4 B H P L (L + 2 H P) / sqrt(S) with E = H P.
    KernelEntry k;
    k.name = "bert_encoder";
    k.family = "neural";
    k.source = R"(
for b in range(B):
  for l in range(L):
    for h in range(H):
      for p in range(P):
        for e in range(E):
          Qh[b,l,h,p] += X[b,l,e] * WQ[e,h,p]
for b in range(B):
  for l in range(L):
    for h in range(H):
      for p in range(P):
        for e in range(E):
          Kh[b,l,h,p] += X[b,l,e] * WK[e,h,p]
for b in range(B):
  for l in range(L):
    for h in range(H):
      for p in range(P):
        for e in range(E):
          Vh[b,l,h,p] += X[b,l,e] * WV[e,h,p]
for b in range(B):
  for h in range(H):
    for i in range(L):
      for j in range(L):
        for p in range(P):
          Att[b,h,i,j] += Qh[b,i,h,p] * Kh[b,j,h,p]
for b in range(B):
  for h in range(H):
    for i in range(L):
      for j in range(L):
        for p in range(P):
          Ctx[b,i,h,p] += Att[b,h,i,j] * Vh[b,j,h,p]
for b in range(B):
  for l in range(L):
    for h in range(H):
      for p in range(P):
        for e in range(E):
          O[b,l,e] += Ctx[b,l,h,p] * WO[e,h,p]
)";
    Expr Bb = sy("B"), H = sy("H"), P = sy("P"), L = sy("L"), E = sy("E");
    Expr bound = (Expr(4) * Bb * H * P * L * L +
                  Expr(8) * Bb * L * H * P * E) /
                 sym::sqrt(S());
    k.paper_bound = bound;  // with E = H*P this is 4 B H P L (L + 2 H P)
    k.expected_bound = bound;
    k.sota = "- (first bound)";
    k.improvement = "-";
    k.options = singleton();
    k.notes =
        "E denotes the model width H*P (reshapes are free); per-layer "
        "accounting as published — cross-layer fusion with recomputation "
        "(flash-attention style) would lower the bound, see EXPERIMENTS.md";
    v.push_back(std::move(k));
  }

  return v;
}

}  // namespace soap::kernels
