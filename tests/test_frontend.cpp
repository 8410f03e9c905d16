#include "frontend/lower.hpp"

#include <gtest/gtest.h>

#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "support/cancel.hpp"

namespace soap::frontend {
namespace {

TEST(Lexer, TokenizesOperatorsAndNumbers) {
  auto toks = tokenize("A[i,j] += 2 * B[i-1][j]", false);
  ASSERT_GT(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "A");
}

TEST(Lexer, PythonIndentation) {
  auto toks = tokenize("for i in range(N):\n  x[i] = y[i]\n", true);
  bool has_indent = false, has_dedent = false;
  for (const auto& t : toks) {
    has_indent |= t.kind == TokenKind::kIndent;
    has_dedent |= t.kind == TokenKind::kDedent;
  }
  EXPECT_TRUE(has_indent);
  EXPECT_TRUE(has_dedent);
}

TEST(Lexer, StripsComments) {
  auto toks = tokenize("x[i] = y[i]  # comment with ! weird chars", true);
  for (const auto& t : toks) EXPECT_NE(t.text, "#");
}

TEST(Lexer, LanguageDetection) {
  EXPECT_TRUE(looks_like_c("for (int i = 0; i < N; i++) x[i] = y[i];"));
  EXPECT_FALSE(looks_like_c("for i in range(N):\n  x[i] = y[i]\n"));
}

TEST(Parser, PythonLoopNest) {
  auto ast = parse_python(R"(
for i in range(N):
  for j in range(1, M):
    C[i,j] += A[i,j] * 0.5
)");
  ASSERT_EQ(ast.size(), 1u);
  EXPECT_EQ(ast[0]->loop_var, "i");
  ASSERT_EQ(ast[0]->body.size(), 1u);
  EXPECT_EQ(ast[0]->body[0]->loop_var, "j");
}

TEST(Parser, CStyleLoops) {
  auto ast = parse_c(R"(
for (int i = 0; i < N; i++) {
  for (int j = 1; j <= M; j++)
    C[i][j] = A[i][j] + B[j];
}
)");
  ASSERT_EQ(ast.size(), 1u);
  const auto& inner = ast[0]->body[0];
  EXPECT_EQ(inner->loop_var, "j");
  // j <= M becomes range(1, M+1).
  EXPECT_EQ(inner->upper->op, "+");
}

TEST(Parser, ReportsSyntaxErrorsWithLocation) {
  EXPECT_THROW(parse_python("for i in range(:\n  x[i] = 1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_c("for (i = 0; j < N; i++) x[i] = 1;"),
               std::runtime_error);
}

TEST(Lower, UpdateOperatorAddsOutputAsInput) {
  Program p = parse_program("for i in range(N):\n  x[i] += y[i]\n");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_TRUE(p.statements[0].updates_output());
}

TEST(Lower, PlainAssignReadingOutputDetected) {
  Program p = parse_program("for i in range(N):\n  x[i] = x[i] + y[i]\n");
  EXPECT_TRUE(p.statements[0].updates_output());
}

TEST(Lower, MergesAccessesPerArray) {
  Program p = parse_program(
      "for i in range(1, N):\n  b[i] = a[i-1] + a[i] + a[i+1]\n");
  ASSERT_EQ(p.statements[0].inputs.size(), 1u);
  EXPECT_EQ(p.statements[0].inputs[0].components.size(), 3u);
}

TEST(Lower, DeduplicatesRepeatedReferences) {
  Program p = parse_program("for i in range(N):\n  b[i] = a[i] * a[i]\n");
  EXPECT_EQ(p.statements[0].inputs[0].components.size(), 1u);
}

TEST(Lower, AffineSubscripts) {
  Program p = parse_program(
      "for i in range(N):\n  for j in range(N):\n    b[i] = a[2*i - j + 3]\n");
  const Affine& idx = p.statements[0].inputs[0].components[0].index[0];
  EXPECT_EQ(idx.coeff(intern_symbol("i")), Rational(2));
  EXPECT_EQ(idx.coeff(intern_symbol("j")), Rational(-1));
  EXPECT_EQ(idx.constant(), Rational(3));
}

TEST(Lower, RejectsNonAffineSubscripts) {
  EXPECT_THROW(parse_program("for i in range(N):\n  b[i] = a[i*i]\n"),
               std::runtime_error);
}

// What the diagnostic says matters as much as that it throws: every
// frontend error is an AnalysisError{kInvalidInput} carrying line:column
// and the offending token/expression, so a user can find the problem in a
// multi-statement source without bisecting it.
TEST(Lower, DiagnosticCarriesPositionAndOffendingExpression) {
  try {
    parse_program("for i in range(N):\n  b[i] = a[i*i]\n");
    FAIL() << "expected a lowering error";
  } catch (const support::AnalysisError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::kInvalidInput);
    const std::string msg = e.what();
    // The subscript i*i starts at line 2; the '*' operator is the node the
    // lowering rejects.
    EXPECT_NE(msg.find("2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("i*i"), std::string::npos) << msg;
    EXPECT_NE(msg.find("non-affine product"), std::string::npos) << msg;
  }
}

TEST(Lower, DiagnosticPointsAtNonAffineLoopBound) {
  try {
    parse_program("for i in range(N):\n  for j in range(N*i):\n"
                  "    b[i] = a[j]\n");
    FAIL() << "expected a lowering error";
  } catch (const support::AnalysisError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::kInvalidInput);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("N*i"), std::string::npos) << msg;
  }
}

TEST(Parser, SyntaxErrorIsInvalidInputWithPosition) {
  try {
    parse_python("for i in range(:\n  x[i] = 1\n");
    FAIL() << "expected a parse error";
  } catch (const support::AnalysisError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::kInvalidInput);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("near"), std::string::npos) << msg;
  }
}

TEST(Lexer, BadCharacterIsInvalidInputWithPosition) {
  try {
    tokenize("x[i] = y @ z", false);
    FAIL() << "expected a lex error";
  } catch (const support::AnalysisError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("1:10"), std::string::npos)
        << e.what();
  }
}

TEST(Lexer, IntegerLiteralOutOfRangeIsInvalidInputWithPosition) {
  // Past long long an integer literal used to lex as 0, so this loop was
  // analyzed as range(0, 0) and the offset below vanished.
  for (const std::string source :
       {"for i in range(99999999999999999999):\n  x[i] = a[i]\n",
        "for i in range(N):\n  C[i+99999999999999999999] = A[i]\n"}) {
    try {
      parse_program(source);
      FAIL() << "expected a lex error for " << source;
    } catch (const support::AnalysisError& e) {
      EXPECT_EQ(e.code(), support::StatusCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("lex error at "),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
  // The largest long long still lexes; float literals stay value-free.
  const auto tokens = tokenize("9223372036854775807 1e99999999999999999999",
                               false);
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].number, 9223372036854775807LL);
  EXPECT_EQ(tokens[1].kind, TokenKind::kNumber);
}

TEST(Lower, CallsAreTransparent) {
  Program p = parse_program(
      "for i in range(N):\n  b[i] = max(a[i], exp(c[i]))\n");
  EXPECT_EQ(p.statements[0].inputs.size(), 2u);
}

TEST(Lower, MultipleStatementsShareNothing) {
  Program p = parse_program(R"(
for i in range(N):
  t[i] = a[i]
for i in range(N):
  u[i] = t[i]
)");
  ASSERT_EQ(p.statements.size(), 2u);
  EXPECT_EQ(p.statements[0].name, "St1");
  EXPECT_EQ(p.statements[1].name, "St2");
  EXPECT_EQ(p.input_arrays(), std::vector<std::string>{"a"});
}

TEST(Lower, DataDependentGatherCollapsesAndChargesIndexArray) {
  // x[colind[i,k]] is a data-dependent read: the subscript collapses to the
  // single representative location (affine 0 — the adversarial maximal-
  // reuse case, sound for lower bounds) and the index array colind becomes
  // an ordinary affine read charged in full.
  Program p = parse_program(
      "for i in range(M):\n  for k in range(K):\n"
      "    y[i] += val[i,k] * x[colind[i,k]]\n");
  ASSERT_EQ(p.statements.size(), 1u);
  const Statement& st = p.statements[0];
  ASSERT_TRUE(st.reads("val"));
  ASSERT_TRUE(st.reads("colind"));
  ASSERT_TRUE(st.reads("x"));
  const ArrayAccess* colind = st.input_for("colind");
  ASSERT_EQ(colind->components.size(), 1u);
  EXPECT_EQ(colind->components[0].index[0].coeff(intern_symbol("i")),
            Rational(1));
  EXPECT_EQ(colind->components[0].index[1].coeff(intern_symbol("k")),
            Rational(1));
  const ArrayAccess* x = st.input_for("x");
  ASSERT_EQ(x->components.size(), 1u);
  ASSERT_EQ(x->components[0].index.size(), 1u);
  EXPECT_TRUE(x->components[0].index[0].is_constant());
  EXPECT_EQ(x->components[0].index[0].constant(), Rational(0));
}

TEST(Lower, DataDependentScatterReadsItsIndexArray) {
  // A data-dependent *store* collapses the same way, and its index array is
  // read even under a plain `=` (the address must be computed).
  Program p = parse_program(
      "for k in range(NNZ):\n  y[rowind[k]] = val[k]\n");
  const Statement& st = p.statements[0];
  EXPECT_EQ(st.output.array, "y");
  ASSERT_EQ(st.output.components.size(), 1u);
  EXPECT_TRUE(st.output.components[0].index[0].is_constant());
  EXPECT_TRUE(st.reads("rowind"));
  EXPECT_TRUE(st.reads("val"));
}

TEST(Lower, NonAffineLoopBoundsStillRejected) {
  // The collapse applies to subscripts only; a data-dependent loop bound
  // (CSR row-pointer iteration) remains a lowering error.
  EXPECT_THROW(
      parse_program("for i in range(M):\n  for k in range(row[i]):\n"
                    "    y[i] += val[k]\n"),
      std::runtime_error);
}

TEST(Lower, ScalarsIgnored) {
  Program p = parse_program(
      "for i in range(N):\n  b[i] = alpha * a[i] + beta\n");
  ASSERT_EQ(p.statements[0].inputs.size(), 1u);
  EXPECT_EQ(p.statements[0].inputs[0].array, "a");
}

}  // namespace
}  // namespace soap::frontend
