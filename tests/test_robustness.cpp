// End-to-end robustness semantics across the analysis stack
// (docs/ROBUSTNESS.md): graceful degradation to the sound per-statement
// bound when a deadline or resource budget trips, cancellation that always
// surfaces as kCancelled and never degrades, resilient corpus runs that
// survive per-kernel failures with partial results plus a failure summary,
// and attainment rows that stay sound even when their bound derivation was
// degraded.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/attainment.hpp"
#include "kernels/table2.hpp"
#include "sdg/multi_statement.hpp"
#include "support/cancel.hpp"

namespace soap {
namespace {

using kernels::KernelEntry;

// The unlimited per-statement reference a degraded run must reproduce:
// same accounting, just derived without any budget in the way.
sdg::MultiStatementBound per_statement_reference(const Program& program,
                                                 sdg::SdgOptions options) {
  options.max_subgraph_size = 1;
  options.threads = 1;
  options.stop = support::StopCriteria{};
  auto bound = sdg::multi_statement_bound(program, options);
  EXPECT_TRUE(bound.has_value());
  EXPECT_FALSE(bound->degraded);
  return *bound;
}

TEST(Degradation, ExpiredDeadlineFallsBackToThePerStatementBound) {
  const KernelEntry& k = kernels::kernel_by_name("2mm");
  Program program = k.build();
  const sdg::MultiStatementBound reference =
      per_statement_reference(program, k.options);

  sdg::SdgOptions tripped = k.options;
  tripped.stop.deadline = support::Deadline::after_ms(0);
  auto degraded = sdg::multi_statement_bound(program, tripped);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->degraded_reason,
            support::StatusCode::kDeadlineExceeded);
  // Pointer-identical under hash-consing: the fallback is exactly the
  // per-statement accounting, not some approximation of it.
  EXPECT_EQ(degraded->Q_leading, reference.Q_leading);
  EXPECT_EQ(degraded->Q_sdg, reference.Q_sdg);
}

TEST(Degradation, TinyLiveNodeBudgetDegradesWithTheBudgetReason) {
  const KernelEntry& k = kernels::kernel_by_name("atax");
  Program program = k.build();
  const sdg::MultiStatementBound reference =
      per_statement_reference(program, k.options);

  sdg::SdgOptions tripped = k.options;
  tripped.stop.budget.max_live_nodes = 1;  // far below any live intern table
  auto degraded = sdg::multi_statement_bound(program, tripped);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->degraded_reason, support::StatusCode::kBudgetExceeded);
  EXPECT_EQ(degraded->Q_leading, reference.Q_leading);
}

TEST(Degradation, CancellationNeverDegradesItAlwaysRaises) {
  const KernelEntry& k = kernels::kernel_by_name("gemm");
  Program program = k.build();
  support::CancellationSource source;
  source.request_cancel();
  sdg::SdgOptions options = k.options;
  options.stop.cancel = source.token();
  try {
    sdg::multi_statement_bound(program, options);
    FAIL() << "expected AnalysisError{kCancelled}";
  } catch (const support::AnalysisError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::kCancelled);
  }
}

TEST(Degradation, NoLimitsMeansNoDegradationAndTheHistoricalBound) {
  // The zero-impact contract: default StopCriteria must not perturb the
  // derivation at all.
  const KernelEntry& k = kernels::kernel_by_name("2mm");
  Program program = k.build();
  auto bound = sdg::multi_statement_bound(program, k.options);
  ASSERT_TRUE(bound.has_value());
  EXPECT_FALSE(bound->degraded);
  EXPECT_EQ(bound->degraded_reason, support::StatusCode::kOk);
  EXPECT_EQ(bound->Q_leading, k.expected_bound);
}

// --- resilient corpus runs ---

TEST(ResilientCorpus, SurvivesAThrowingKernelWithPartialResults) {
  const KernelEntry& gemm = kernels::kernel_by_name("gemm");
  const KernelEntry& atax = kernels::kernel_by_name("atax");
  KernelEntry exploding;
  exploding.name = "exploding";
  exploding.family = "test";
  exploding.source = "for i in range(N):\n  boom[i] = a[i]\n";
  // Derives every kernel normally except the one writing `boom`.
  const kernels::DeriveFn derive = [](const Program& program,
                                      const sdg::SdgOptions& options) {
    for (const Statement& st : program.statements) {
      if (st.output.array == "boom") {
        throw std::runtime_error("synthetic analysis failure");
      }
    }
    return sdg::multi_statement_bound(program, options);
  };
  const std::vector<const KernelEntry*> corpus = {&gemm, &exploding, &atax};

  kernels::CorpusReport report =
      kernels::analyze_corpus_resilient(corpus, {}, derive);
  ASSERT_EQ(report.kernels.size(), 3u);
  // The healthy kernels around the failure keep their exact bounds...
  EXPECT_TRUE(report.kernels[0].ok());
  EXPECT_EQ(*report.kernels[0].bound, kernels::analyze_kernel(gemm));
  EXPECT_TRUE(report.kernels[2].ok());
  EXPECT_EQ(*report.kernels[2].bound, kernels::analyze_kernel(atax));
  // ...and the failure is fully described in its own slot.
  EXPECT_FALSE(report.kernels[1].ok());
  EXPECT_EQ(report.kernels[1].status, support::StatusCode::kInternalError);
  EXPECT_NE(report.kernels[1].message.find("synthetic analysis failure"),
            std::string::npos);

  EXPECT_EQ(report.failed(), 1u);
  EXPECT_EQ(report.degraded_count(), 0u);
  EXPECT_EQ(report.worst_status(), support::StatusCode::kInternalError);
  const std::string summary = report.failure_summary();
  EXPECT_NE(summary.find("exploding"), std::string::npos) << summary;
  EXPECT_NE(summary.find("synthetic analysis failure"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("2/3 kernels produced bounds"), std::string::npos)
      << summary;
}

TEST(ResilientCorpus, TrippedDeadlineDegradesKernelsButKeepsEveryBound) {
  const KernelEntry& gemm = kernels::kernel_by_name("gemm");
  const KernelEntry& mm2 = kernels::kernel_by_name("2mm");
  kernels::CorpusOptions options;
  options.stop.deadline = support::Deadline::after_ms(0);
  kernels::CorpusReport report =
      kernels::analyze_corpus_resilient({&gemm, &mm2}, options);
  ASSERT_EQ(report.kernels.size(), 2u);
  for (const kernels::KernelOutcome& outcome : report.kernels) {
    EXPECT_TRUE(outcome.ok()) << outcome.kernel;
    EXPECT_TRUE(outcome.degraded) << outcome.kernel;
    EXPECT_EQ(outcome.status, support::StatusCode::kDeadlineExceeded)
        << outcome.kernel;
  }
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(report.degraded_count(), 2u);
  // Degraded-but-bounded still surfaces the tripped criterion as the
  // aggregate status (the corpus exit code).
  EXPECT_EQ(report.worst_status(), support::StatusCode::kDeadlineExceeded);
  EXPECT_NE(report.failure_summary().find("degraded to per-statement bound"),
            std::string::npos);
}

TEST(ResilientCorpus, PreCancelledRunRecordsCancelledPerKernel) {
  const KernelEntry& gemm = kernels::kernel_by_name("gemm");
  const KernelEntry& atax = kernels::kernel_by_name("atax");
  support::CancellationSource source;
  source.request_cancel();
  kernels::CorpusOptions options;
  options.stop.cancel = source.token();
  kernels::CorpusReport report =
      kernels::analyze_corpus_resilient({&gemm, &atax}, options);
  ASSERT_EQ(report.kernels.size(), 2u);
  for (const kernels::KernelOutcome& outcome : report.kernels) {
    EXPECT_FALSE(outcome.ok()) << outcome.kernel;
    EXPECT_EQ(outcome.status, support::StatusCode::kCancelled)
        << outcome.kernel;
  }
  EXPECT_EQ(report.worst_status(), support::StatusCode::kCancelled);
}

// --- degraded attainment rows stay sound ---

TEST(Attainment, DegradedRowsStillSatisfyTheSoundnessInvariant) {
  // A tripped deadline degrades the bound derivation inside the row to the
  // per-statement fallback; the row must say so and Q_sim_belady >= Q_lb
  // must keep holding (the degraded bound is weaker, never unsound).
  const KernelEntry& k = kernels::kernel_by_name("atax");
  analysis::AttainmentOptions options;
  options.cache_sizes = {96};
  options.stop.deadline = support::Deadline::after_ms(0);
  const std::vector<analysis::AttainmentRow> rows =
      analysis::measure_kernel(k, options);
  ASSERT_EQ(rows.size(), 1u);
  const analysis::AttainmentRow& row = rows[0];
  EXPECT_TRUE(row.degraded);
  EXPECT_TRUE(row.sound()) << "Q_lb=" << row.Q_lb
                           << " Q_sim_belady=" << row.Q_sim_belady;
  EXPECT_GT(row.Q_lb, 0.0);

  // The rendered table marks the row so a degraded run is never mistaken
  // for a clean one.
  const std::string table = analysis::format_attainment_table({row});
  EXPECT_NE(table.find("[degraded]"), std::string::npos) << table;

  // And without limits the same row comes out clean.
  analysis::AttainmentOptions unlimited;
  unlimited.cache_sizes = {96};
  const std::vector<analysis::AttainmentRow> clean_rows =
      analysis::measure_kernel(k, unlimited);
  ASSERT_EQ(clean_rows.size(), 1u);
  const analysis::AttainmentRow& clean = clean_rows[0];
  EXPECT_FALSE(clean.degraded);
  EXPECT_TRUE(clean.sound());
}

}  // namespace
}  // namespace soap
