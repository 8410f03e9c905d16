// The application corpus of the paper's evaluation (Table 2) and the
// entry points that analyze it.  The original corpus is 38 applications —
// 30 Polybench kernels, 5 deep-learning workloads, and 3 scientific
// applications — each with its SOAP encoding, the paper's reported
// leading-order bound, the prior state of the art, and the engine
// configuration reproducing the published number; the registry
// (kernels/registry.hpp) extends it with post-paper families (attention
// variants, sparse/stencil kernels) without touching the published rows.
// EXPERIMENTS.md documents every encoding decision and the places where
// the general engine derives a different constant than the paper's
// published row.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "sdg/multi_statement.hpp"
#include "support/cancel.hpp"
#include "support/executor.hpp"

namespace soap::kernels {

/// All Polybench entries (30 kernels; registry family "polybench").
std::vector<KernelEntry> polybench_kernels();
/// Deep learning: direct convolution, softmax, MLP, LeNet-5, BERT encoder
/// (registry family "neural").
std::vector<KernelEntry> neural_kernels();
/// LULESH, COSMO horizontal diffusion, COSMO vertical advection (registry
/// family "various").
std::vector<KernelEntry> various_kernels();
/// Attention variants beyond the paper: single-head softmax attention,
/// multi-query attention, and a fused flash-style variant (registry family
/// "attention").
std::vector<KernelEntry> attention_kernels();
/// Sparse and stencil kernels beyond the paper: CSR SpMV (uniform-row
/// model, data-dependent gather) and a two-stage jacobi-2d-style stencil
/// sweep (registry family "sparse_stencil").
std::vector<KernelEntry> sparse_stencil_kernels();

/// The original 38-application Table 2 corpus (families polybench, neural,
/// various), in published order.  The golden tests pin these rows
/// bit-identically; new families never appear here — enumerate
/// Registry::instance().kernels() for the full corpus.
std::vector<const KernelEntry*> table2_kernels();

/// Runs the analysis configured for the entry (its `options`) and returns
/// the leading-order bound, with `threads` subgraph workers (see
/// SdgOptions::threads: 1 = serial, 0 = all hardware threads) and an
/// optional executor for the helper workers (default: the global pool).
sym::Expr analyze_kernel(const KernelEntry& entry, std::size_t threads = 1,
                         support::ExecutorRef executor = {});

/// Lookup across the whole registry by name; throws std::out_of_range when
/// missing.  Equivalent to Registry::instance().at(name).
const KernelEntry& kernel_by_name(const std::string& name);

// ---------------------------------------------------------------------------
// Resilient corpus analysis (docs/ROBUSTNESS.md)
// ---------------------------------------------------------------------------

struct CorpusOptions {
  std::size_t threads = 1;
  support::ExecutorRef executor;
  /// Per-kernel termination criteria (deadline/budgets shared wall-clock
  /// across the run; polled inside each kernel's analysis).
  support::StopCriteria stop;
};

/// Per-kernel result of a resilient corpus run.  `status` is kOk for a
/// clean bound; a degraded kernel keeps its (per-statement fallback) bound
/// AND records the budget code that tripped; a failed kernel has no bound
/// and `message` carries the error text.
struct KernelOutcome {
  std::string kernel;
  std::string family;
  support::StatusCode status = support::StatusCode::kOk;
  bool degraded = false;
  std::optional<sym::Expr> bound;
  std::string message;

  [[nodiscard]] bool ok() const { return bound.has_value(); }
};

struct CorpusReport {
  std::vector<KernelOutcome> kernels;  ///< slot i = input kernel i

  [[nodiscard]] std::size_t failed() const;
  [[nodiscard]] std::size_t degraded_count() const;
  /// The class of the first (input-order) non-ok kernel, kOk when clean —
  /// the aggregate exit code of a corpus run.
  [[nodiscard]] support::StatusCode worst_status() const;
  /// Human-readable per-failure lines + totals; "" when fully clean.
  [[nodiscard]] std::string failure_summary() const;
};

/// How the runners below derive one kernel's bound from its program and
/// options.  The default is sdg::multi_statement_bound; a cached caller
/// passes a lambda over service::analyze_program (service/analyze.hpp), so
/// cached and uncached runs share one outcome and report path.
using DeriveFn = std::function<std::optional<sdg::MultiStatementBound>(
    const Program&, const sdg::SdgOptions&)>;

/// The outcome of `entry` given its derived bound (std::nullopt: no
/// non-trivial bound, reported as invalid input).
KernelOutcome kernel_outcome(
    const KernelEntry& entry,
    const std::optional<sdg::MultiStatementBound>& bound);

/// Analyzes `entry` under `stop`, never throwing: every error class —
/// deadline/budget (after the degraded fallback also failed), cancellation,
/// invalid input, optimizer no-converge, unexpected exceptions — is folded
/// into the returned outcome's status/message.
KernelOutcome analyze_kernel_checked(
    const KernelEntry& entry, std::size_t threads = 1,
    support::ExecutorRef executor = {},
    const support::StopCriteria& stop = {},
    const DeriveFn& derive = sdg::multi_statement_bound);

/// Analyzes `kernels` as one batch of (kernel x subgraph) work items:
/// kernels are claimed concurrently AND each kernel's subgraph analysis
/// fans out over the same executor, so a long-tail kernel spreads over
/// every idle worker instead of serializing the batch.  Slot i holds the
/// outcome of kernels[i], bit-identical for every thread count and
/// executor.  A kernel that fails (or degrades) reports its status in its
/// own slot instead of aborting the batch — partial results plus a failure
/// summary, never all-or-nothing.
CorpusReport analyze_corpus_resilient(
    const std::vector<const KernelEntry*>& kernels,
    const CorpusOptions& options = {},
    const DeriveFn& derive = sdg::multi_statement_bound);

}  // namespace soap::kernels
