// The sharded pebble-game validation entry points (pebbles/validate.*):
// slot-per-job determinism of batch instantiation, schedule replay, the
// end-to-end schedule validation, and the optimal oracle across thread
// counts and executors.  Labeled `parallel` so the TSan CI job covers it.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "frontend/lower.hpp"
#include "pebbles/validate.hpp"
#include "support/executor.hpp"
#include "support/thread_pool.hpp"

namespace soap::pebbles {
namespace {

Program gemm_program() {
  return frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
}

Program outer_product_program() {
  return frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    C[i,j] = A[i] * B[j]
)");
}

support::ParallelOptions with_threads(std::size_t threads) {
  support::ParallelOptions shard;
  shard.threads = threads;
  return shard;
}

// CDAGs have no operator==; compare the full observable structure.
void expect_same_cdag(const Cdag& a, const Cdag& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a.label(v), b.label(v)) << label << " vertex " << v;
    EXPECT_EQ(a.graph().parents(v), b.graph().parents(v))
        << label << " vertex " << v;
  }
  EXPECT_EQ(a.inputs(), b.inputs()) << label;
  EXPECT_EQ(a.outputs(), b.outputs()) << label;
}

TEST(InstantiateBatch, MatchesSerialInstantiationAcrossThreadCounts) {
  Program gemm = gemm_program();
  Program outer = outer_product_program();
  std::vector<InstantiationJob> jobs = {
      {&gemm, {{"N", 2}}},
      {&gemm, {{"N", 3}}},
      {&outer, {{"N", 4}}},
      {&gemm, {{"N", 4}}},
  };
  std::vector<Cdag> reference;
  reference.reserve(jobs.size());
  for (const InstantiationJob& job : jobs) {
    reference.push_back(instantiate(*job.program, job.params));
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                              std::size_t{0}}) {
    std::vector<Cdag> batch = instantiate_batch(jobs, {},
                                                with_threads(threads));
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same_cdag(batch[i], reference[i],
                       "job " + std::to_string(i) + " @" +
                           std::to_string(threads) + " threads");
    }
  }
}

TEST(RunPebblings, MatchesIndividualReplayAcrossThreadCounts) {
  Cdag cdag = instantiate(gemm_program(), {{"N", 2}});
  std::vector<ScheduleResult> schedules;
  std::vector<ReplayJob> jobs;
  for (std::size_t S = 4; S <= 8; ++S) {
    schedules.push_back(
        natural_order_pebbling(cdag, S, Replacement::kBelady));
  }
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    jobs.push_back({&cdag, 4 + i, &schedules[i].moves});
  }
  std::vector<GameResult> reference;
  reference.reserve(jobs.size());
  for (const ReplayJob& job : jobs) {
    reference.push_back(run_pebbling(*job.cdag, job.S, *job.moves));
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                              std::size_t{0}}) {
    std::vector<GameResult> batch = run_pebblings(jobs, with_threads(threads));
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string label =
          "job " + std::to_string(i) + " @" + std::to_string(threads);
      EXPECT_EQ(batch[i].valid, reference[i].valid) << label;
      EXPECT_EQ(batch[i].io_cost, reference[i].io_cost) << label;
      EXPECT_EQ(batch[i].loads, reference[i].loads) << label;
      EXPECT_EQ(batch[i].stores, reference[i].stores) << label;
      EXPECT_EQ(batch[i].max_red, reference[i].max_red) << label;
      EXPECT_EQ(batch[i].error, reference[i].error) << label;
    }
  }
}

TEST(ValidateSchedules, BeladySchedulesReplayConsistently) {
  Cdag gemm = instantiate(gemm_program(), {{"N", 3}});
  Cdag outer = instantiate(outer_product_program(), {{"N", 3}});
  std::vector<PebbleCase> cases;
  for (std::size_t S = 4; S <= 8; ++S) cases.push_back({&gemm, S});
  for (std::size_t S = 3; S <= 6; ++S) cases.push_back({&outer, S});
  std::vector<ScheduleValidation> serial =
      validate_schedules(cases, Replacement::kBelady, with_threads(1));
  ASSERT_EQ(serial.size(), cases.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].scheduled) << "case " << i << ": "
                                     << serial[i].error;
    EXPECT_TRUE(serial[i].consistent())
        << "case " << i << ": " << serial[i].replay.error;
    EXPECT_EQ(serial[i].replay.io_cost, serial[i].schedule.io_cost)
        << "case " << i;
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    std::vector<ScheduleValidation> parallel =
        validate_schedules(cases, Replacement::kBelady, with_threads(threads));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      const std::string label =
          "case " + std::to_string(i) + " @" + std::to_string(threads);
      EXPECT_EQ(parallel[i].scheduled, serial[i].scheduled) << label;
      EXPECT_EQ(parallel[i].schedule.io_cost, serial[i].schedule.io_cost)
          << label;
      EXPECT_EQ(parallel[i].replay.io_cost, serial[i].replay.io_cost) << label;
      EXPECT_EQ(parallel[i].consistent(), serial[i].consistent()) << label;
    }
  }
}

TEST(ValidateSchedules, ImpossibleBudgetIsReportedPerSlotNotThrown) {
  Cdag gemm = instantiate(gemm_program(), {{"N", 3}});
  // S = 1 cannot pebble a vertex with two parents; the batch must still
  // complete and report the failure in its slot.
  std::vector<PebbleCase> cases = {{&gemm, 1}, {&gemm, 8}};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<ScheduleValidation> out =
        validate_schedules(cases, Replacement::kBelady, with_threads(threads));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_FALSE(out[0].scheduled) << out[0].schedule.io_cost;
    EXPECT_FALSE(out[0].error.empty());
    EXPECT_TRUE(out[1].consistent()) << out[1].error;
  }
}

TEST(OptimalPebblings, MatchesSerialOracleAcrossThreadCounts) {
  Cdag outer = instantiate(outer_product_program(), {{"N", 2}});
  std::vector<PebbleCase> cases;
  for (std::size_t S = 3; S <= 6; ++S) cases.push_back({&outer, S});
  std::vector<std::optional<OptimalResult>> reference;
  reference.reserve(cases.size());
  for (const PebbleCase& c : cases) {
    reference.push_back(optimal_pebbling(*c.cdag, c.S));
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::optional<OptimalResult>> batch =
        optimal_pebblings(cases, {}, with_threads(threads));
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string label =
          "case " + std::to_string(i) + " @" + std::to_string(threads);
      ASSERT_EQ(batch[i].has_value(), reference[i].has_value()) << label;
      if (batch[i]) {
        EXPECT_EQ(batch[i]->cost, reference[i]->cost) << label;
      }
    }
  }
}

TEST(ValidateSchedules, SerialExecutorForcesInlineExecution) {
  Cdag gemm = instantiate(gemm_program(), {{"N", 2}});
  std::vector<PebbleCase> cases;
  for (std::size_t S = 4; S <= 8; ++S) cases.push_back({&gemm, S});
  support::ParallelOptions shard;
  shard.threads = 8;
  shard.executor = support::ExecutorRef::serial();
  std::vector<ScheduleValidation> inline_run =
      validate_schedules(cases, Replacement::kBelady, shard);
  std::vector<ScheduleValidation> serial =
      validate_schedules(cases, Replacement::kBelady, with_threads(1));
  ASSERT_EQ(inline_run.size(), serial.size());
  for (std::size_t i = 0; i < inline_run.size(); ++i) {
    EXPECT_EQ(inline_run[i].schedule.io_cost, serial[i].schedule.io_cost);
    EXPECT_EQ(inline_run[i].consistent(), serial[i].consistent());
  }
}

}  // namespace
}  // namespace soap::pebbles
