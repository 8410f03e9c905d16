// The "Various" block of Table 2: LULESH's dominant kernel, COSMO
// horizontal diffusion and vertical advection.
#include "kernels/table2.hpp"

namespace soap::kernels {

namespace {

using sym::Expr;

Expr sy(const char* n) { return Expr::symbol(n); }

sdg::SdgOptions singleton() {
  sdg::SdgOptions o;
  o.max_subgraph_size = 1;
  return o;
}

// LULESH main kernel: a chain of 22 per-element field updates
// (CalcLagrangeElements / CalcQForElems / material updates), each producing
// one elemental field from the previous one.  The paper reports 22*numElem;
// per-statement accounting reproduces it (the chained fields are consumed
// immediately, one access each).
std::string lulesh_source() {
  const char* fields[] = {
      "dxx",     "dyy",    "dzz",    "vdov",      "arealg", "delv_xi",
      "delv_eta","delv_zeta","delx_xi","delx_eta", "delx_zeta","qq",
      "ql",      "e_old",  "p_old",  "q_old",     "compression", "delvc",
      "work",    "p_new",  "e_new",  "q_new"};
  std::string src;
  std::string prev = "elemvol";
  for (const char* f : fields) {
    src += "for e in range(numElem):\n  " + std::string(f) + "[e] = " + prev +
           "[e]\n";
    prev = f;
  }
  return src;
}

}  // namespace

std::vector<KernelEntry> various_kernels() {
  std::vector<KernelEntry> v;

  {
    KernelEntry k;
    k.name = "lulesh";
    k.family = "various";
    k.source = lulesh_source();
    Expr bound = Expr(22) * sy("numElem");
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (first bound; outside the polyhedral model)";
    k.improvement = "-";
    k.options = singleton();
    k.notes =
        "22 chained per-element field updates of the dominant time-step "
        "kernel (>60% of runtime per the paper)";
    v.push_back(std::move(k));
  }

  {
    // COSMO horizontal diffusion: lap / flx / fly intermediates are
    // recomputable inside a fused tile, so only the input and output fields
    // are charged: 2 I J K (the cold bound dominates the fused Theorem-1
    // accounting, exactly the recomputation argument of the paper).
    KernelEntry k;
    k.name = "horizontal_diffusion";
    k.family = "various";
    k.source = R"(
for i in range(1, I - 1):
  for j in range(1, J - 1):
    for k in range(K):
      lap[i,j,k] = inf[i-1,j,k] + inf[i+1,j,k] + inf[i,j-1,k] + inf[i,j+1,k] + inf[i,j,k]
for i in range(1, I - 1):
  for j in range(1, J - 1):
    for k in range(K):
      flx[i,j,k] = lap[i+1,j,k] - lap[i,j,k]
for i in range(1, I - 1):
  for j in range(1, J - 1):
    for k in range(K):
      fly[i,j,k] = lap[i,j+1,k] - lap[i,j,k]
for i in range(1, I - 1):
  for j in range(1, J - 1):
    for k in range(K):
      outf[i,j,k] = inf[i,j,k] - flx[i,j,k] + flx[i-1,j,k] - fly[i,j,k] + fly[i,j-1,k]
)";
    Expr bound = Expr(2) * sy("I") * sy("J") * sy("K");
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (first bound)";
    k.improvement = "-";
    k.options.use_cold_bound = true;
    v.push_back(std::move(k));
  }

  {
    // COSMO vertical advection: five field sweeps with vertical (k)
    // recurrences; four distinct external fields are read and the updated
    // velocity tensor is stored: 5 I J K.
    KernelEntry k;
    k.name = "vertical_advection";
    k.family = "various";
    k.source = R"(
for i in range(I):
  for j in range(J):
    for k in range(1, K):
      ccol[i,j,k] = wcon[i,j,k] + ccol[i,j,k-1]
for i in range(I):
  for j in range(J):
    for k in range(1, K):
      dcol[i,j,k] = ucol[i,j,k] + ccol[i,j,k] + dcol[i,j,k-1]
for i in range(I):
  for j in range(J):
    for k in range(1, K):
      datacol[i,j,k] = dcol[i,j,k] + datacol[i,j,k-1]
for i in range(I):
  for j in range(J):
    for k in range(K):
      ustage[i,j,k] = datacol[i,j,k] + upos[i,j,k]
for i in range(I):
  for j in range(J):
    for k in range(K):
      utens[i,j,k] = ustage[i,j,k] + utensin[i,j,k]
)";
    Expr bound = Expr(5) * sy("I") * sy("J") * sy("K");
    k.paper_bound = bound;
    k.expected_bound = bound;
    k.sota = "- (first bound; recomputation required)";
    k.improvement = "-";
    k.options.use_cold_bound = true;
    v.push_back(std::move(k));
  }

  return v;
}

}  // namespace soap::kernels
