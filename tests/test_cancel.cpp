// The termination primitives in support/cancel.*: status taxonomy and exit
// codes, cancellation token/source wiring, deadlines, resource budgets, the
// live-node gauge (registered by the symbolic layer, hence the
// soap::symbolic link), and StopCriteria's severity ordering.
#include "support/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "symbolic/expr.hpp"

namespace soap::support {
namespace {

TEST(StatusCode, NamesAndExitCodesAreStable) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kInternalError),
               "internal_error");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidInput), "invalid_input");
  EXPECT_STREQ(status_code_name(StatusCode::kOptimizerNoConverge),
               "optimizer_no_converge");
  EXPECT_STREQ(status_code_name(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(status_code_name(StatusCode::kBudgetExceeded),
               "budget_exceeded");
  EXPECT_STREQ(status_code_name(StatusCode::kCancelled), "cancelled");

  EXPECT_EQ(status_exit_code(StatusCode::kOk), 0);
  EXPECT_EQ(status_exit_code(StatusCode::kInternalError), 1);
  EXPECT_EQ(status_exit_code(StatusCode::kInvalidInput), 2);
  EXPECT_EQ(status_exit_code(StatusCode::kOptimizerNoConverge), 3);
  EXPECT_EQ(status_exit_code(StatusCode::kDeadlineExceeded), 4);
  EXPECT_EQ(status_exit_code(StatusCode::kBudgetExceeded), 5);
  EXPECT_EQ(status_exit_code(StatusCode::kCancelled), 6);
}

TEST(AnalysisError, CarriesCodeAndMessageAndIsARuntimeError) {
  AnalysisError e(StatusCode::kDeadlineExceeded, "too slow");
  EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  EXPECT_STREQ(e.what(), "too slow");
  const std::runtime_error& base = e;  // legacy catch sites keep working
  EXPECT_STREQ(base.what(), "too slow");
}

TEST(CancellationToken, DefaultIsNeverCancelledAndUnarmed) {
  CancellationToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationSource, TokenObservesRequestAcrossThreads) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(token.cancelled());
  std::thread other([&source] { source.request_cancel(); });
  other.join();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
}

TEST(CancellationSource, TokensOutliveTheSource) {
  CancellationToken token;
  {
    CancellationSource source;
    token = source.token();
    source.request_cancel();
  }
  EXPECT_TRUE(token.cancelled());  // shared flag keeps the state alive
}

TEST(Deadline, DefaultNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, ZeroBudgetExpiresImmediatelyLongBudgetDoesNot) {
  EXPECT_TRUE(Deadline::after_ms(0).expired());
  Deadline far = Deadline::after(std::chrono::hours(1));
  EXPECT_TRUE(far.armed());
  EXPECT_FALSE(far.expired());
}

TEST(ResourceBudget, ZeroMeansUnlimited) {
  ResourceBudget b;
  EXPECT_TRUE(b.unlimited());
  b.max_solver_evals = 10;
  EXPECT_FALSE(b.unlimited());
}

TEST(StopCriteria, DefaultIsUnlimitedAndChecksOk) {
  StopCriteria stop;
  EXPECT_TRUE(stop.unlimited());
  EXPECT_EQ(stop.check(), StatusCode::kOk);
  EXPECT_NO_THROW(stop.enforce("test"));
}

TEST(StopCriteria, CancellationOutranksDeadline) {
  CancellationSource source;
  source.request_cancel();
  StopCriteria stop;
  stop.cancel = source.token();
  stop.deadline = Deadline::after_ms(0);  // also tripped
  EXPECT_EQ(stop.check(), StatusCode::kCancelled);
}

TEST(StopCriteria, EnforceNamesTheCriterionAndTheSite) {
  StopCriteria stop;
  stop.deadline = Deadline::after_ms(0);
  try {
    stop.enforce("unit test");
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadline"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unit test"), std::string::npos) << msg;
  }
}

TEST(LiveNodeGauge, SymbolicLayerRegistersTheInternTableCount) {
  // Any interned expression keeps at least one node alive; the gauge must
  // agree with the table's own statistics.
  sym::Expr keep = sym::Expr::symbol("gauge_probe") + sym::Expr(41);
  EXPECT_GT(live_node_count(), 0u);
  EXPECT_EQ(live_node_count(), sym::expr_intern_stats().live_nodes);
}

TEST(StopCriteria, NodeBudgetTripsAgainstTheLiveGauge) {
  sym::Expr keep = sym::Expr::symbol("budget_probe") * sym::Expr(17);
  StopCriteria stop;
  stop.budget.max_live_nodes = 1;  // far below any live table
  EXPECT_EQ(stop.check(), StatusCode::kBudgetExceeded);
  try {
    stop.enforce("budget site");
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.code(), StatusCode::kBudgetExceeded);
    EXPECT_NE(std::string(e.what()).find("live-node budget"),
              std::string::npos)
        << e.what();
  }
  // A generous cap does not trip.
  stop.budget.max_live_nodes = live_node_count() + 1000000;
  EXPECT_EQ(stop.check(), StatusCode::kOk);
}

}  // namespace
}  // namespace soap::support
