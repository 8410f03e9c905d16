#include "pebbles/validate.hpp"

#include <exception>
#include <utility>

namespace soap::pebbles {

std::vector<Cdag> instantiate_batch(const std::vector<InstantiationJob>& jobs,
                                    const InstantiateOptions& options,
                                    const support::ParallelOptions& shard) {
  return support::parallel_map<Cdag>(jobs.size(), shard, [&](std::size_t i) {
    return instantiate(*jobs[i].program, jobs[i].params, options);
  });
}

std::vector<GameResult> run_pebblings(const std::vector<ReplayJob>& jobs,
                                      const support::ParallelOptions& shard) {
  return support::parallel_map<GameResult>(
      jobs.size(), shard, [&](std::size_t i) {
        return run_pebbling(*jobs[i].cdag, jobs[i].S, *jobs[i].moves);
      });
}

std::vector<ScheduleValidation> validate_schedules(
    const std::vector<PebbleCase>& cases, Replacement policy,
    const support::ParallelOptions& shard) {
  return support::parallel_map<ScheduleValidation>(
      cases.size(), shard, [&](std::size_t i) {
        ScheduleValidation v;
        try {
          v.schedule = natural_order_pebbling(*cases[i].cdag, cases[i].S,
                                              policy);
          v.scheduled = true;
        } catch (const std::exception& e) {
          v.error = e.what();
          return v;
        }
        v.replay = run_pebbling(*cases[i].cdag, cases[i].S, v.schedule.moves);
        return v;
      });
}

std::vector<std::optional<OptimalResult>> optimal_pebblings(
    const std::vector<PebbleCase>& cases, const OptimalOptions& options,
    const support::ParallelOptions& shard) {
  return support::parallel_map<std::optional<OptimalResult>>(
      cases.size(), shard, [&](std::size_t i) {
        return optimal_pebbling(*cases[i].cdag, cases[i].S, options);
      });
}

}  // namespace soap::pebbles
