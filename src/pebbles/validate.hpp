// Sharded pebble-game validation: batch entry points that fan the
// machine-checking path of Section 2 — CDAG instantiation, scheduled-pebbling
// generation, move-sequence replay (game.cpp), and the exhaustive optimal
// oracle — across an injectable executor with deterministic, slot-per-job
// merging.  `shard` is the support::parallel_map budget (threads, executor,
// grain, cancellation) a batch runs under.  Every function here is a pure
// per-job map: sharding decides only who runs a job, never what it computes
// or which slot the result lands in, so the output vector is bit-identical
// for every thread count and executor.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "pebbles/game.hpp"
#include "pebbles/heuristic.hpp"
#include "pebbles/instantiate.hpp"
#include "pebbles/optimal.hpp"
#include "support/parallel.hpp"

namespace soap::pebbles {

/// One CDAG instantiation job: a program at concrete parameter values.
struct InstantiationJob {
  const Program* program = nullptr;
  std::map<std::string, long long> params;
};

/// instantiate(jobs[i]) for every i, sharded; slot i holds job i's CDAG.
std::vector<Cdag> instantiate_batch(
    const std::vector<InstantiationJob>& jobs,
    const InstantiateOptions& options = {},
    const support::ParallelOptions& shard = {});

/// One schedule-replay job: validate `moves` on `cdag` under red budget S.
struct ReplayJob {
  const Cdag* cdag = nullptr;
  std::size_t S = 0;
  const std::vector<Move>* moves = nullptr;
};

/// run_pebbling(jobs[i]) for every i, sharded; slot i holds job i's result.
std::vector<GameResult> run_pebblings(
    const std::vector<ReplayJob>& jobs,
    const support::ParallelOptions& shard = {});

/// A (CDAG, S) validation case for the end-to-end entry points below.
struct PebbleCase {
  const Cdag* cdag = nullptr;
  std::size_t S = 0;
};

/// End-to-end check of one case: generate the natural-order scheduled
/// pebbling and machine-check it by replaying the move sequence through the
/// game rules.
struct ScheduleValidation {
  bool scheduled = false;  ///< schedule generation succeeded
  std::string error;       ///< why not, when !scheduled
  ScheduleResult schedule;
  GameResult replay;
  /// The replay is rule-valid and reproduces the schedule's claimed cost.
  [[nodiscard]] bool consistent() const {
    return scheduled && replay.valid && replay.io_cost == schedule.io_cost;
  }
};

/// Scheduled pebbling + replay for every case, sharded; slot i.  A case
/// whose schedule generation throws (e.g. S below the CDAG's minimum red
/// requirement) is reported in its slot with scheduled = false rather than
/// failing the batch.
std::vector<ScheduleValidation> validate_schedules(
    const std::vector<PebbleCase>& cases, Replacement policy,
    const support::ParallelOptions& shard = {});

/// optimal_pebbling for every case, sharded; slot i (nullopt = search
/// capped, exactly as the serial oracle reports it).
std::vector<std::optional<OptimalResult>> optimal_pebblings(
    const std::vector<PebbleCase>& cases, const OptimalOptions& options = {},
    const support::ParallelOptions& shard = {});

}  // namespace soap::pebbles
