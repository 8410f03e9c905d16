// Golden reproduction of the registered corpus: every one of the paper's
// 38 Table 2 applications plus the post-paper families (attention,
// sparse_stencil), analyzed end-to-end (source text -> SOAP -> SDG ->
// bound), must produce the expected leading-order term.  EXPERIMENTS.md
// documents the three rows where our engine's constant deliberately
// differs from the published one (fdtd2d, adi, lenet5) — the expectation
// below is this implementation's value; the bench prints both side by
// side.
#include <gtest/gtest.h>

#include "kernels/registry.hpp"
#include "kernels/table2.hpp"
#include "sym_matchers.hpp"
#include "symbolic/expr.hpp"
#include "table2_golden.hpp"

namespace soap::kernels {
namespace {

class Corpus : public ::testing::TestWithParam<std::string> {};

TEST_P(Corpus, ReproducesExpectedBound) {
  const KernelEntry& k = kernel_by_name(GetParam());
  sym::Expr got = analyze_kernel(k);
  EXPECT_SYM_EQ(got, k.expected_bound) << k.name;
}

TEST_P(Corpus, BoundIsSoundAgainstReferenceRow) {
  // Where our constant differs from the reference (the paper's row for the
  // Table 2 families, the recorded closed form for the new ones), it must
  // still be a valid lower bound statement: we never claim more than four
  // times the reference value without a documented reason, and never less
  // than 1/4 of it (leading order, large sizes, S = 2^20).
  const KernelEntry& k = kernel_by_name(GetParam());
  sym::Expr got = analyze_kernel(k);
  std::map<std::string, double> env;
  for (const std::string& s : got.symbols()) env[s] = 1e6;
  for (const std::string& s : k.paper_bound.symbols()) env[s] = 1e6;
  env["S"] = static_cast<double>(1 << 20);
  double ours = got.eval(env);
  double paper = k.paper_bound.eval(env);
  EXPECT_GE(ours, paper / 4.0) << k.name;
  EXPECT_LE(ours, paper * 4.0) << k.name;
}

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& k : Registry::instance().kernels()) {
    names.push_back(k.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllApplications, Corpus,
                         ::testing::ValuesIn(all_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

TEST(Table2Corpus, HasAll38PublishedApplications) {
  // The original Table 2 blocks, untouched by registry growth: 38 rows in
  // published order, never a new-family kernel among them.
  std::vector<const KernelEntry*> rows = table2_kernels();
  EXPECT_EQ(rows.size(), 38u);
  int polybench = 0, neural = 0, various = 0;
  for (const KernelEntry* k : rows) {
    polybench += k->family == "polybench";
    neural += k->family == "neural";
    various += k->family == "various";
  }
  EXPECT_EQ(polybench, 30);
  EXPECT_EQ(neural, 5);
  EXPECT_EQ(various, 3);
  EXPECT_EQ(rows.front()->name, "gemm");
  EXPECT_EQ(rows.back()->name, "vertical_advection");
}

TEST(Table2Corpus, RegistryGrowsTheCorpusBeyondTable2) {
  const Registry& registry = Registry::instance();
  EXPECT_GE(registry.size(), 43u);
  EXPECT_EQ(registry.family("attention").size(), 3u);
  EXPECT_EQ(registry.family("sparse_stencil").size(), 2u);
}

TEST(Table2Corpus, ProgramsParseAndAreWellFormed) {
  for (const auto& k : Registry::instance().kernels()) {
    Program p = k.build();
    EXPECT_FALSE(p.statements.empty()) << k.name;
    for (const Statement& st : p.statements) {
      EXPECT_FALSE(st.output.array.empty()) << k.name;
      EXPECT_GT(st.domain.depth(), 0u) << k.name;
    }
  }
}

// The golden rows are transcribed from the published table (and, for the
// post-paper families, from the closed-form references recorded when the
// kernels were added) independently of the corpus encoding in src/kernels,
// so a drift in either the encoding or the analyzer fails here even if
// both test expectations above were regenerated together.
TEST(Table2Corpus, MatchesIndependentGoldenRows) {
  for (const auto& row : soap::testing::table2_golden_rows()) {
    const KernelEntry& k = kernel_by_name(row.name);
    EXPECT_SYM_EQ(k.paper_bound, row.paper_bound) << row.name;
    EXPECT_SYM_EQ(analyze_kernel(k), row.paper_bound) << row.name;
  }
}

TEST(Table2Corpus, LookupByName) {
  EXPECT_EQ(kernel_by_name("gemm").family, "polybench");
  EXPECT_EQ(kernel_by_name("flash_attention").family, "attention");
  EXPECT_THROW(kernel_by_name("nonexistent"), std::out_of_range);
}

}  // namespace
}  // namespace soap::kernels
