// The attention family: post-paper workloads defined through the frontend
// DSL and listed in the corpus registry.  Three variants of
// scaled-dot-product attention over a batch B of sequences of length L:
//
//   * attention       — single-head softmax attention with the standard
//                       four-pass softmax, per-statement accounting (the
//                       published per-operator style of the neural block);
//   * mqa             — multi-query attention: H query heads share one
//                       K/V head, the memory-bound regime of inference
//                       decoders;
//   * flash_attention — the same math with fused-subgraph accounting and
//                       the cold bound, the recomputation argument behind
//                       flash-style kernels: the softmax intermediates are
//                       recomputable inside a tile, so only the matmul
//                       terms survive at leading order.
//
// Each entry records its closed-form expected leading-order bound, pinned
// by the golden tests (tests/support/table2_golden.cpp).
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

std::vector<KernelEntry> attention_kernels() {
  std::vector<KernelEntry> v;
  Expr B = sy("B"), L = sy("L"), D = sy("D"), H = sy("H"), P = sy("P");

  {
    // Single-head softmax attention: the two L x L x D contractions
    // (scores, context) dominate; the four softmax passes contribute
    // Theta(B L^2), one polynomial degree below, and drop out of the
    // leading term.  Per-statement accounting, matching the published
    // per-operator style of softmax / bert_encoder.
    KernelEntry k;
    k.name = "attention";
    k.family = "attention";
    k.source = R"(
for b in range(B):
  for i in range(L):
    for j in range(L):
      for d in range(D):
        Sc[b,i,j] += Qm[b,i,d] * Km[b,j,d]
for b in range(B):
  for i in range(L):
    for j in range(L):
      mx[b,i] = max(mx[b,i], Sc[b,i,j])
for b in range(B):
  for i in range(L):
    for j in range(L):
      P[b,i,j] = exp(Sc[b,i,j] - mx[b,i])
for b in range(B):
  for i in range(L):
    for j in range(L):
      sm[b,i] += P[b,i,j]
for b in range(B):
  for i in range(L):
    for j in range(L):
      for d in range(D):
        Acc[b,i,d] += P[b,i,j] * Vm[b,j,d]
for b in range(B):
  for i in range(L):
    for d in range(D):
      O[b,i,d] = Acc[b,i,d] / sm[b,i]
)";
    Expr bound = Expr(4) * B * L * L * D / sym::sqrt(S());
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (not in the paper's corpus)";
    k.improvement = "-";
    k.options = singleton();
    k.notes =
        "scores + context contractions at 2 B L^2 D/sqrt(S) each; the four "
        "softmax passes are Theta(B L^2), below leading order";
    v.push_back(std::move(k));
  }

  {
    // Multi-query attention: H query heads, one shared key/value head.
    // The per-head contractions still meet the matmul intensity sqrt(S),
    // so sharing K/V changes the streamed-operand footprint (B L P instead
    // of B H L P), not the leading term.
    KernelEntry k;
    k.name = "mqa";
    k.family = "attention";
    k.source = R"(
for b in range(B):
  for h in range(H):
    for i in range(L):
      for j in range(L):
        for p in range(P):
          Sc[b,h,i,j] += Qh[b,h,i,p] * Ksh[b,j,p]
for b in range(B):
  for h in range(H):
    for i in range(L):
      for j in range(L):
        for p in range(P):
          Ctx[b,h,i,p] += Sc[b,h,i,j] * Vsh[b,j,p]
)";
    Expr bound = Expr(4) * B * H * L * L * P / sym::sqrt(S());
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (not in the paper's corpus)";
    k.improvement = "-";
    k.options = singleton();
    k.notes =
        "shared K/V head: the gather footprint shrinks H-fold but the "
        "score/context contractions keep the 4 B H L^2 P/sqrt(S) term";
    v.push_back(std::move(k));
  }

  {
    // Flash-style fused attention: identical math to `attention`, analyzed
    // with fused subgraphs and the cold bound — the engine's version of
    // the online-softmax recomputation argument.  The softmax
    // intermediates (mx, P, sm) merge into the contraction subgraphs and
    // stop contributing standalone passes; the surviving leading term is
    // the two contractions' 4 B L^2 D/sqrt(S).
    KernelEntry k;
    k.name = "flash_attention";
    k.family = "attention";
    k.source = R"(
for b in range(B):
  for i in range(L):
    for j in range(L):
      for d in range(D):
        Sc[b,i,j] += Qm[b,i,d] * Km[b,j,d]
for b in range(B):
  for i in range(L):
    for j in range(L):
      mx[b,i] = max(mx[b,i], Sc[b,i,j])
for b in range(B):
  for i in range(L):
    for j in range(L):
      P[b,i,j] = exp(Sc[b,i,j] - mx[b,i])
for b in range(B):
  for i in range(L):
    for j in range(L):
      sm[b,i] += P[b,i,j]
for b in range(B):
  for i in range(L):
    for j in range(L):
      for d in range(D):
        Acc[b,i,d] += P[b,i,j] * Vm[b,j,d]
for b in range(B):
  for i in range(L):
    for d in range(D):
      O[b,i,d] = Acc[b,i,d] / sm[b,i]
)";
    Expr bound = Expr(4) * B * L * L * D / sym::sqrt(S());
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "4 B L^2 D/sqrt(S) + 4 B L^2 (unfused per-pass accounting)";
    k.improvement = "-";
    k.options.use_cold_bound = true;
    k.notes =
        "fused-subgraph accounting (max_subgraph_size 4, cold bound): the "
        "softmax passes fuse away, mirroring the flash-attention "
        "recomputation argument the bert_encoder notes point at";
    v.push_back(std::move(k));
  }

  return v;
}

}  // namespace soap::kernels
