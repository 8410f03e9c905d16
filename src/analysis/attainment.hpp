// Close-the-loop attainment analysis: bounds -> schedules -> simulated I/O.
//
// The paper's headline claim is not only that the I/O lower bounds exist but
// that they are *attainable*: substituting the optimizer's X0 back into the
// tile shapes (Section 4.5) yields a schedule whose measured I/O approaches
// Q_lb.  This subsystem wires the pieces the repo already carries —
// schedule::concrete_tiles, schedule::TraceBuilder, cachesim::simulate_* —
// into one reproducible mode over the kernel registry: for every corpus
// kernel, derive the bound, tile with the optimizer's X0, replay the tiled
// schedule through the LRU and Belady cache simulators, and report the
// attained-I/O / lower-bound ratio.
//
// Soundness orientation.  Belady (offline-optimal) replacement of a concrete
// execution is a valid red-blue pebbling, so its I/O upper-bounds the
// optimum the analytic bound lower-bounds:  Q_sim_belady >= Q_lb must hold
// for every kernel, cache size, and tiling.  A violation is a bug — in the
// bound derivation, the tiling, the trace, or the simulator — which makes
// this table the strongest machine-checked invariant the project has (the
// CI soundness gate; see tests/test_attainment.cpp and docs/ATTAINMENT.md).
//
// Multi-statement kernels.  The corpus bound is the *fused* multi-statement
// bound (Theorem 1 / cold bound, per the kernel's recorded SdgOptions), but
// the simulator replays each statement separately with a cold cache — a
// valid (if pessimistic) schedule, so the soundness direction still holds,
// while fusion- or recomputation-based bounds (flash_attention,
// stencil_sweep) show ratios well above 1 until a fused schedule generator
// exists.  Rows carry an explicit bound/sim scope marker ("fused/stmt") so
// this comparison is visible rather than silently wrong.
//
// Determinism.  A kernel's rows are a pure function of (kernel, options):
// the kernels shard over the ExecutorRef seam with slot-per-kernel
// collection, concatenated in kernel order, so the table is bit-identical
// for every thread count, executor, and schedule (enforced by
// test_attainment.cpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "support/cancel.hpp"
#include "support/executor.hpp"

namespace soap::analysis {

struct AttainmentOptions {
  /// Fast-memory sizes S (words) swept per kernel, in reporting order.
  std::vector<long long> cache_sizes = {96, 384};
  /// Concrete values for problem-size symbols; symbols not listed get a
  /// depth-scaled default (see default_params).
  std::map<std::string, long long> params;
  /// Target iteration count per statement used to derive the default
  /// extents: deeper nests get smaller per-dimension extents so every
  /// kernel's trace stays simulable.
  std::size_t iteration_budget = 20000;
  /// Worker budget for the per-kernel batch, SdgOptions::threads semantics
  /// (1 = serial, 0 = hardware); the table is bit-identical for every
  /// value.
  std::size_t threads = 1;
  /// Where helper workers run (default: the process-global pool).
  support::ExecutorRef executor;
  /// Termination criteria for each kernel's bound derivation (a
  /// deadline/budget trip degrades the kernel's bound to the per-statement
  /// fallback and sets AttainmentRow::degraded on all of its S rows
  /// together; cancellation raises AnalysisError{kCancelled}).  Default:
  /// unlimited — the 86 golden rows stay bit-identical.
  support::StopCriteria stop;
};

/// One (kernel, S) attainment measurement.
struct AttainmentRow {
  std::string kernel;
  std::string family;
  long long S = 0;
  /// Statements in the kernel's program; > 1 means the bound is fused but
  /// the simulation is per-statement (see `fused`).
  std::size_t statements = 0;
  /// True when the bound accounts for cross-statement fusion/recomputation
  /// but the simulated schedule replays statements separately — the ratio
  /// then over-states the gap (it is an upper bound on attainable I/O).
  bool fused = false;
  /// True when a deadline/budget trip degraded the bound derivation to the
  /// per-statement fallback (see SdgOptions::stop).  The row is
  /// still sound — the per-statement bound is exactly the baseline the
  /// `sound()` invariant validates against — but Q_lb may be weaker than
  /// the fused bound.
  bool degraded = false;
  /// Concrete problem-size values the trace was generated with.
  std::map<std::string, long long> params;
  /// The kernel's corpus bound (Q_leading of its recorded analysis)
  /// evaluated at (params, S).
  double Q_lb = 0.0;
  /// Simulated I/O (loads + stores) of the tiled schedule, summed over
  /// statements: LRU and Belady (offline-optimal) replacement.
  long long Q_sim_lru = 0;
  long long Q_sim_belady = 0;
  /// Total accesses replayed and the sum of per-statement distinct
  /// addresses (shared arrays counted once per statement).
  std::size_t trace_length = 0;
  std::size_t footprint = 0;

  /// Attainment ratio Q_sim_belady / Q_lb (0 when the bound is 0).
  [[nodiscard]] double ratio() const {
    return Q_lb > 0.0 ? static_cast<double>(Q_sim_belady) / Q_lb : 0.0;
  }
  /// The soundness invariant: simulated offline-optimal I/O never beats
  /// the bound (floor() absorbs the bound's fractional part — I/O counts
  /// are integers).
  [[nodiscard]] bool sound() const;
};

/// Concrete problem sizes for a kernel: every parameter symbol of its
/// program (loop bounds plus recorded problem_sizes) mapped to a default
/// extent scaled by the deepest loop nest so the trace stays within
/// `options.iteration_budget` per statement; `options.params` overrides
/// individual symbols.
std::map<std::string, long long> default_params(
    const kernels::KernelEntry& entry, const AttainmentOptions& options = {});

/// Measures one kernel at every `options.cache_sizes` entry, one row each in
/// that order.  The kernel's corpus bound (its recorded SdgOptions) and each
/// statement's single-statement bound are derived once; per S the corpus
/// bound is evaluated, each statement is tiled with schedule::concrete_tiles
/// and its trace replayed through the LRU and Belady simulators.  Pure
/// function of (entry, options).
std::vector<AttainmentRow> measure_kernel(
    const kernels::KernelEntry& entry, const AttainmentOptions& options = {});

/// The attainment table for an explicit kernel subset: one row per
/// (kernel, cache size), kernel-major in the given order.  Kernels shard
/// across `options.threads` workers on `options.executor` with
/// slot-per-kernel determinism — bit-identical output for every thread
/// count and executor.
std::vector<AttainmentRow> attainment_table(
    const std::vector<const kernels::KernelEntry*>& kernels,
    const AttainmentOptions& options = {});

/// Renders rows as the corpus-wide text table (header + one line per row +
/// a soundness summary line "N rows, M violations").
std::string format_attainment_table(const std::vector<AttainmentRow>& rows);

/// Rows violating the soundness invariant (0 on a healthy build).
std::size_t count_unsound(const std::vector<AttainmentRow>& rows);

}  // namespace soap::analysis
