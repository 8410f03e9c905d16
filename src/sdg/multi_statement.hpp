// Theorem 1 of the paper: the multi-statement I/O lower bound
//   Q >= sum_{A in V_S} |A| / max_{H in S(A)} rho_H,
// evaluated over the enumerated connected SDG subgraphs, combined with the
// cold bound (every touched input loaded and every terminal output stored at
// least once).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "bounds/opt/types.hpp"
#include "bounds/result.hpp"
#include "sdg/merge.hpp"
#include "sdg/sdg.hpp"
#include "support/cancel.hpp"
#include "support/executor.hpp"

namespace soap::sdg {

struct SdgOptions {
  /// Largest subgraph cardinality enumerated; 1 disables fusion analysis.
  std::size_t max_subgraph_size = 4;
  /// Cap on the total number of subgraphs enumerated (enumeration stops
  /// exactly here, which also bounds the materialized subgraph list;
  /// corpus programs stay far below it).
  std::size_t max_subgraphs = 100000;
  /// Worker budget for the per-subgraph analysis (merge -> chi -> minimize
  /// -> eval), counting the calling thread: 1 = serial (default, bypasses
  /// the pool entirely), 0 = all hardware threads, N = up to N.  The result
  /// is bit-identical for every value — the parallel_map fan-out only
  /// changes who computes each subgraph, never what is computed or the
  /// order it is reduced in.
  std::size_t threads = 1;
  /// Where helper workers run: the process-global pool by default; inject a
  /// private pool or ExecutorRef::serial() to override (helper fan-out is
  /// capped by the executor's concurrency).
  support::ExecutorRef executor;
  /// Include the cold bound (inputs touched + terminal outputs stored at
  /// least once) via max().  Off by default: the bounding-box footprint
  /// over-counts for version-dimension encodings (time stencils) and
  /// triangular domains; enable it for streaming pipelines where it is exact
  /// (horizontal diffusion, vertical advection).
  bool use_cold_bound = false;
  /// Termination criteria, polled at subgraph-enumeration boundaries and
  /// inside the numeric optimizer.  Default: unlimited — the analysis runs
  /// exactly its historical path and the golden rows stay bit-identical.
  /// A deadline or resource-budget trip mid-derivation always falls back
  /// to the sound per-statement accounting (max_subgraph_size = 1, serial,
  /// cancellation still honored) and marks the result `degraded` instead of
  /// failing the kernel.  Cancellation never degrades — it always raises
  /// AnalysisError{kCancelled}.
  support::StopCriteria stop;
  /// Numeric optimizer backend for the per-subgraph chi constant fits
  /// (bounds/opt, docs/OPTIMIZER.md) — the only place a backend is chosen.
  /// All shipped backends agree on the corpus (the differential suite
  /// enforces it); the default is the historical solver, bit-identical.
  /// Part of the service cache key.
  bounds::opt::BackendKind optimizer = bounds::opt::BackendKind::kNelderMead;
};

struct ArrayBound {
  std::string array;
  sym::Expr cdag_size;               ///< |A|: CDAG vertices of the array
  sym::Expr rho;                     ///< best intensity (leading in S)
  double rho_value = 0.0;            ///< rho at the reference S
  std::vector<std::string> best_subgraph;
};

struct MultiStatementBound {
  sym::Expr Q_leading;  ///< final Table 2 style bound
  sym::Expr Q_sdg;      ///< Theorem 1 sum over computed arrays
  sym::Expr Q_cold;     ///< inputs touched + terminal outputs stored
  std::vector<ArrayBound> per_array;
  std::size_t subgraphs_evaluated = 0;
  /// True when a deadline/budget trip forced the per-statement fallback;
  /// `degraded_reason` records which criterion tripped.  A degraded bound
  /// is still sound (per-statement accounting is the soundness baseline the
  /// attainment table validates against) but may be weaker than the fused
  /// bound the full enumeration would have derived.
  bool degraded = false;
  support::StatusCode degraded_reason = support::StatusCode::kOk;

  [[nodiscard]] std::string str() const {
    return "Q >= " + Q_leading.str();
  }
};

/// Full multi-statement analysis of a SOAP program.  Polls `options.stop`
/// at enumeration/solver chunk boundaries; see SdgOptions::stop for what
/// happens when a criterion trips.
std::optional<MultiStatementBound> multi_statement_bound(
    const Program& program, const SdgOptions& options = {});

}  // namespace soap::sdg
