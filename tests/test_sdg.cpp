// Section 6: SDG construction, subgraph enumeration, statement merging and
// Theorem 1, exercised on the paper's Figure 2 example and the fusion
// kernels.
#include <gtest/gtest.h>

#include "frontend/lower.hpp"
#include "sdg/merge.hpp"
#include "sdg/multi_statement.hpp"
#include "sdg/sdg.hpp"
#include "sdg/subgraph.hpp"

namespace soap::sdg {
namespace {

using sym::Expr;

Program figure2() {
  return frontend::parse_program(R"(
for i in range(N):
  for j in range(M):
    C[i,j] = (A[i] + A[i+1]) * (B[j] + B[j+1])
for i in range(N):
  for j in range(K):
    for k in range(M):
      E[i,j] += C[i,k] * D[k,j]
)");
}

TEST(Sdg, Figure2Structure) {
  Program p = figure2();
  Sdg g = Sdg::build(p);
  // V_S = {A, B, C, D, E}; edges A->C, B->C, C->E, D->E, E->E.
  EXPECT_EQ(g.arrays().size(), 5u);
  EXPECT_TRUE(g.has_edge("A", "C"));
  EXPECT_TRUE(g.has_edge("B", "C"));
  EXPECT_TRUE(g.has_edge("C", "E"));
  EXPECT_TRUE(g.has_edge("D", "E"));
  EXPECT_TRUE(g.has_edge("E", "E"));  // self-edge from the update
  EXPECT_EQ(g.input_arrays(), (std::vector<std::string>{"A", "B", "D"}));
  EXPECT_EQ(g.computed_arrays(), (std::vector<std::string>{"C", "E"}));
}

TEST(Sdg, Figure2Subgraphs) {
  Program p = figure2();
  Sdg g = Sdg::build(p);
  auto subs = enumerate_subgraphs(g, 4);
  // {C}, {E}, {C, E} — exactly the three subgraph statements of Example 8.
  EXPECT_EQ(subs.size(), 3u);
}

TEST(Sdg, Figure2MergedSubgraphReusesC) {
  Program p = figure2();
  Sdg g = Sdg::build(p);
  MergedSubgraph m = merge_subgraph(g, {"C", "E"});
  // In(St_H3) = {A, B, D}: C is internal (computed and reused).
  std::set<std::string> inputs;
  for (const auto& t : m.problem.sum_terms) {
    inputs.insert(t.array.substr(0, t.array.find('@')));
  }
  EXPECT_TRUE(inputs.count("A"));
  EXPECT_TRUE(inputs.count("B"));
  EXPECT_TRUE(inputs.count("D"));
  EXPECT_FALSE(inputs.count("C"));
  // Two member statements -> two objective monomials (different var sets).
  EXPECT_EQ(m.members.size(), 2u);
}

TEST(Sdg, Figure2Bound) {
  auto b = multi_statement_bound(figure2());
  ASSERT_TRUE(b);
  // C = (A + shift(A)) x (B + shift(B)) is rank-1: inside the fused subgraph
  // H3 = {C, E} its elements are recomputed from the O(N+M) vectors for free
  // (Figure 2: "Elements of C are recomputed, decreasing the I/O cost!"),
  // which lifts the intensity to Theta(S) and leaves Q >= 2 K M N / S.
  Expr expected = Expr(2) * Expr::symbol("K") * Expr::symbol("M") *
                  Expr::symbol("N") / Expr::symbol("S");
  EXPECT_EQ(b->Q_leading, expected);
}

TEST(Sdg, AdjacencyViaSharedInput) {
  // atax: tmp and y share A; adjacency must hold even without an SDG edge.
  Program p = frontend::parse_program(R"(
for i in range(M):
  for j in range(N):
    tmp[i] += A[i,j] * x[j]
for i in range(M):
  for j in range(N):
    y[j] += A[i,j] * tmp[i]
)");
  Sdg g = Sdg::build(p);
  EXPECT_TRUE(g.adjacent("tmp", "y"));
}

TEST(Sdg, MergeUnifiesIterationVariables) {
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    x1[i] += A[i,j] * y1[j]
for i in range(N):
  for j in range(N):
    x2[i] += A[j,i] * y2[j]
)");
  Sdg g = Sdg::build(p);
  MergedSubgraph m = merge_subgraph(g, {"x1", "x2"});
  // The transposed access aligns st2's (j, i) with st1's (i, j): two unified
  // variables, a single shared A load term.
  EXPECT_EQ(m.problem.vars.size(), 2u);
  int a_terms = 0;
  for (const auto& t : m.problem.sum_terms) a_terms += t.array == "A";
  EXPECT_EQ(a_terms, 1);
}

TEST(Sdg, FusionBoundsMatchPaper) {
  struct Case {
    const char* src;
    double expected_at_ref;
  };
  // mvt: Theorem 1 with the merged subgraph gives N^2 (rho = 2).
  Program mvt = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    x1[i] += A[i,j] * y1[j]
for i in range(N):
  for j in range(N):
    x2[i] += A[j,i] * y2[j]
)");
  auto b = multi_statement_bound(mvt);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->Q_leading, Expr::symbol("N") * Expr::symbol("N"));
  // Both computed arrays should pick the fused subgraph with rho = 2.
  for (const auto& a : b->per_array) {
    EXPECT_NEAR(a.rho_value, 2.0, 1e-6) << a.array;
    EXPECT_EQ(a.best_subgraph.size(), 2u) << a.array;
  }
}

TEST(Sdg, SingletonOptionDisablesFusion) {
  Program mvt = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    x1[i] += A[i,j] * y1[j]
for i in range(N):
  for j in range(N):
    x2[i] += A[j,i] * y2[j]
)");
  SdgOptions opt;
  opt.max_subgraph_size = 1;
  auto b = multi_statement_bound(mvt, opt);
  ASSERT_TRUE(b);
  // Without fusion each pass is charged separately: 2 N^2.
  EXPECT_EQ(b->Q_leading,
            Expr(2) * Expr::symbol("N") * Expr::symbol("N"));
}

TEST(Sdg, InteriorArrayWithReductionStillCharged) {
  // 2mm: tmp carries a k-reduction, so its final versions cannot be produced
  // inside a partial tile; fusing must not erase its term (paper: 4N^3).
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      tmp[i,j] += A[i,k] * B[k,j]
for i in range(N):
  for j in range(N):
    for k in range(N):
      D[i,j] += tmp[i,k] * C[k,j]
)");
  auto b = multi_statement_bound(p);
  ASSERT_TRUE(b);
  Expr n3 = Expr::symbol("N") * Expr::symbol("N") * Expr::symbol("N");
  EXPECT_EQ(b->Q_leading, Expr(4) * n3 / sym::sqrt(Expr::symbol("S")));
}

TEST(Sdg, ColdBoundDominatesForRecomputablePipelines) {
  // Horizontal-diffusion shape: intermediates recomputable, bound = in+out.
  Program p = frontend::parse_program(R"(
for i in range(1, I - 1):
  for j in range(1, J - 1):
    lap[i,j] = inf[i-1,j] + inf[i+1,j] + inf[i,j-1] + inf[i,j+1]
for i in range(1, I - 1):
  for j in range(1, J - 1):
    outf[i,j] = lap[i+1,j] - lap[i,j]
)");
  SdgOptions opt;
  opt.use_cold_bound = true;
  auto b = multi_statement_bound(p, opt);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->Q_cold, Expr(2) * Expr::symbol("I") * Expr::symbol("J"));
}

TEST(Sdg, PerSubgraphStreamingMatchesMaterializedEnumeration) {
  // The streaming producer: one subset per sink call, canonical order
  // (by cardinality, then generation order).
  Program p = figure2();
  Sdg g = Sdg::build(p);
  std::vector<std::vector<std::string>> streamed;
  std::size_t last_size = 0;
  for_each_subgraph(g, 4, 100000, [&](std::vector<std::string>&& names) {
    EXPECT_GE(names.size(), last_size);  // never shrinks: level order
    last_size = names.size();
    streamed.push_back(std::move(names));
    return true;
  });
  EXPECT_EQ(streamed, enumerate_subgraphs(g, 4));
}

TEST(Sdg, StreamingSinkCanStopEnumerationEarly) {
  std::string src;
  std::string prev = "a0";
  for (int i = 1; i <= 12; ++i) {
    std::string cur = "a" + std::to_string(i);
    src += "for i in range(N):\n  " + cur + "[i] = " + prev + "[i]\n";
    prev = cur;
  }
  Program p = frontend::parse_program(src);
  Sdg g = Sdg::build(p);
  auto all = enumerate_subgraphs(g, 3);
  ASSERT_GT(all.size(), 5u);
  std::vector<std::vector<std::string>> taken;
  for_each_subgraph(g, 3, 100000, [&](std::vector<std::string>&& names) {
    taken.push_back(std::move(names));
    return taken.size() < 5;  // stop after the fifth subset
  });
  ASSERT_EQ(taken.size(), 5u);
  for (std::size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken[i], all[i]) << i;
  }
}

TEST(Sdg, EnumerationStopsExactlyAtMaxCount) {
  std::string src;
  std::string prev = "a0";
  for (int i = 1; i <= 12; ++i) {
    std::string cur = "a" + std::to_string(i);
    src += "for i in range(N):\n  " + cur + "[i] = " + prev + "[i]\n";
    prev = cur;
  }
  Program p = frontend::parse_program(src);
  Sdg g = Sdg::build(p);
  auto all = enumerate_subgraphs(g, 3);
  ASSERT_GT(all.size(), 7u);
  // The cap cuts generation mid-stream (even mid-level) and is exact.
  auto capped = enumerate_subgraphs(g, 3, 7);
  EXPECT_EQ(capped.size(), 7u);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i], all[i]) << i;  // a prefix of the canonical order
  }
  EXPECT_TRUE(enumerate_subgraphs(g, 3, 0).empty());
}

TEST(Sdg, SubgraphEnumerationCap) {
  // A chain of 12 statements: connected subsets of size <= 3 only.
  std::string src;
  std::string prev = "a0";
  for (int i = 1; i <= 12; ++i) {
    std::string cur = "a" + std::to_string(i);
    src += "for i in range(N):\n  " + cur + "[i] = " + prev + "[i]\n";
    prev = cur;
  }
  Program p = frontend::parse_program(src);
  Sdg g = Sdg::build(p);
  auto subs = enumerate_subgraphs(g, 3);
  // 12 singletons + 11 pairs + 10 triples = 33 connected interval subsets...
  // plus shared-input adjacency can widen this; at minimum the intervals.
  EXPECT_GE(subs.size(), 33u);
  for (const auto& h : subs) EXPECT_LE(h.size(), 3u);
}

}  // namespace
}  // namespace soap::sdg
