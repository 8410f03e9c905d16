#include "soap/access.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

#include "soap/program.hpp"
#include "soap/projection.hpp"
#include "symbolic/expr.hpp"

namespace soap {
namespace {

Affine var(const char* v) { return Affine::variable(v); }

TEST(Affine, Arithmetic) {
  Affine a = var("i") + Affine(2);
  Affine b = a - var("i");
  EXPECT_TRUE(b.is_constant());
  EXPECT_EQ(b.constant(), Rational(2));
  Affine scaled = Rational(3) * (var("i") + Affine(1));
  EXPECT_EQ(scaled.coeff(intern_symbol("i")), Rational(3));
  EXPECT_EQ(scaled.constant(), Rational(3));
}

TEST(Affine, EvalAndStr) {
  Affine a = var("i") - var("j") + Affine(1);
  EXPECT_EQ(a.eval({{"i", Rational(5)}, {"j", Rational(2)}}), Rational(4));
  EXPECT_THROW(testing::sink(a.eval({{"i", Rational(1)}})), std::out_of_range);
  EXPECT_EQ(a.str(), "i - j + 1");
  EXPECT_EQ(Affine(0).str(), "0");
}

TEST(SymbolKeys, NameLiteralsAndSymIdLookupsAgree) {
  // A name becomes a SymId in the name constructors and in the name-keyed
  // SymMap literal; every lookup takes the SymId.
  const SymId i = intern_symbol("i");
  const SymId j = intern_symbol("j");
  const SymId k = intern_symbol("k");
  const SymMap<Rational> by_name = {{"j", Rational(2)}, {"i", Rational(5)}};
  EXPECT_EQ(by_name, (SymMap<Rational>{{i, Rational(5)}, {j, Rational(2)}}));
  const Affine a = Rational(3) * var("i") - var("j");
  EXPECT_EQ(a.coeff(i), Rational(3));
  EXPECT_EQ(a.coeff(j), Rational(-1));
  EXPECT_EQ(a.coeff(k), Rational(0));
  EXPECT_EQ(a.eval(by_name), Rational(13));
  const sym::Expr x = sym::Expr::symbol("i");
  const sym::Expr e = x * x * sym::Expr::symbol(j);
  EXPECT_TRUE(e.contains(i));
  EXPECT_FALSE(e.contains(k));
  EXPECT_EQ(e.diff(i), sym::Expr(2) * x * sym::Expr::symbol("j"));
  EXPECT_TRUE(e.diff(k).is_zero());
  EXPECT_DOUBLE_EQ(e.eval({{"i", 5.0}, {"j", 2.0}}), 50.0);
}

TEST(SimpleOverlap, DetectsConstantTranslations) {
  // Stencil: A[i-1,t], A[i,t], A[i+1,t], A[i,t+1].
  ArrayAccess acc;
  acc.array = "A";
  acc.components = {{{var("i") - Affine(1), var("t")}},
                    {{var("i"), var("t")}},
                    {{var("i") + Affine(1), var("t")}},
                    {{var("i"), var("t") + Affine(1)}}};
  auto trans = simple_overlap_translations(acc);
  ASSERT_TRUE(trans);
  auto counts = access_offset_counts(*trans);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2);  // i offsets {1, 2} relative to i-1
  EXPECT_EQ(counts[1], 1);  // t offset {1}
}

TEST(SimpleOverlap, RejectsNonConstantDifferences) {
  // LU-style A[i,k] vs A[k,j]: differences involve iteration variables.
  ArrayAccess acc;
  acc.array = "A";
  acc.components = {{{var("i"), var("k")}}, {{var("k"), var("j")}}};
  EXPECT_FALSE(simple_overlap_translations(acc));
}

TEST(Projection, SplitsDisjointGroups) {
  Statement st;
  st.name = "lu";
  st.domain = Domain({{"k", 0, var("N")},
                      {"i", var("k") + Affine(1), var("N")},
                      {"j", var("k") + Affine(1), var("N")}});
  st.output = {"A", {{{var("i"), var("j")}}}};
  st.inputs = {{"A",
                {{{var("i"), var("j")}},
                 {{var("i"), var("k")}},
                 {{var("k"), var("j")}},
                 {{var("k"), var("k")}}}}};
  Statement split = split_disjoint_accesses(st);
  ASSERT_EQ(split.inputs.size(), 4u);
  // The group matching the output keeps the original array name.
  int named_a = 0;
  for (const auto& in : split.inputs) {
    if (in.array == "A") ++named_a;
  }
  EXPECT_EQ(named_a, 1);
}

TEST(Projection, KeepsSimpleOverlapTogether) {
  Statement st;
  st.name = "stencil";
  st.domain = Domain({{"i", 1, var("N")}});
  st.output = {"B", {{{var("i")}}}};
  st.inputs = {{"A", {{{var("i") - Affine(1)}}, {{var("i") + Affine(1)}}}}};
  Statement split = split_disjoint_accesses(st);
  ASSERT_EQ(split.inputs.size(), 1u);
  EXPECT_EQ(split.inputs[0].components.size(), 2u);
}

TEST(Projection, NeedsVersionDimension) {
  Statement st;
  st.name = "update";
  st.domain = Domain({{"i", 0, var("N")}, {"k", 0, var("N")}});
  st.output = {"A", {{{var("i")}}}};
  st.inputs = {{"A", {{{var("i")}}}}};
  EXPECT_TRUE(needs_version_dimension(st));
  st.inputs = {{"A", {{{var("i") - Affine(1)}}}}};
  EXPECT_FALSE(needs_version_dimension(st));
}

TEST(SoapCheck, FlagsViolationsAndPasses) {
  Program p;
  Statement ok;
  ok.name = "gemm";
  ok.domain = Domain({{"i", 0, var("N")}, {"j", 0, var("N")},
                      {"k", 0, var("N")}});
  ok.output = {"C", {{{var("i"), var("j")}}}};
  ok.inputs = {{"Aa", {{{var("i"), var("k")}}}},
               {"Bb", {{{var("k"), var("j")}}}}};
  p.statements = {ok};
  EXPECT_TRUE(is_soap(p));

  Statement bad = ok;
  bad.inputs.push_back(
      {"Img", {{{var("i") + var("j"), var("k")}}}});  // multi-var dim
  p.statements = {bad};
  auto violations = check_soap(p);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].array, "Img");
}

TEST(Program, ArrayClassification) {
  Program p;
  Statement st;
  st.name = "s";
  st.domain = Domain({{"i", 0, var("N")}});
  st.output = {"y", {{{var("i")}}}};
  st.inputs = {{"x", {{{var("i")}}}}};
  p.statements = {st};
  EXPECT_EQ(p.input_arrays(), std::vector<std::string>{"x"});
  EXPECT_EQ(p.computed_arrays(), std::vector<std::string>{"y"});
  EXPECT_EQ(p.terminal_arrays(), std::vector<std::string>{"y"});
}

}  // namespace
}  // namespace soap
