// Digest stability: the cache-key contract of docs/SERVING.md.
//
// The serving story rests on content digests that are (a) stable across
// separate processes (node ids and SymIds are process-local intern order,
// so pointer-derived keys would not be), (b) sensitive to every
// bound-relevant difference (alpha-inequivalent programs, differing
// options), and (c) collision-free in practice over the corpus.  The
// cross-process half shells out to analyze_tool --json twice and compares
// its digest field between runs and against the in-process value.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "frontend/lower.hpp"
#include "kernels/table2.hpp"
#include "sdg/multi_statement.hpp"
#include "service/cache_key.hpp"
#include "support/digest.hpp"
#include "symbolic/expr.hpp"

namespace soap {
namespace {

using service::CacheKey;
using service::expr_digest;
using service::make_cache_key;
using service::program_digest;
using support::Digest;
using support::DigestWriter;

constexpr const char* kGemm =
    "for i in range(N):\n"
    "  for j in range(N):\n"
    "    for k in range(N):\n"
    "      C[i,j] += A[i,k] * B[k,j]\n";

TEST(DigestPrimitives, HexRoundTrip) {
  DigestWriter w;
  w.mix_string("hello");
  const Digest d = w.finish();
  EXPECT_NE(d, Digest{});
  const std::string hex = d.hex();
  EXPECT_EQ(hex.size(), 32u);
  const auto back = Digest::from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
  EXPECT_FALSE(Digest::from_hex("not hex").has_value());
  EXPECT_FALSE(Digest::from_hex("abcd").has_value());
}

TEST(DigestPrimitives, OrderAndBoundariesMatter) {
  DigestWriter ab;
  ab.mix_string("a");
  ab.mix_string("b");
  DigestWriter ba;
  ba.mix_string("b");
  ba.mix_string("a");
  EXPECT_NE(ab.finish(), ba.finish());
  // Length prefixes keep "ab"+"c" distinct from "a"+"bc".
  DigestWriter abc1;
  abc1.mix_string("ab");
  abc1.mix_string("c");
  DigestWriter abc2;
  abc2.mix_string("a");
  abc2.mix_string("bc");
  EXPECT_NE(abc1.finish(), abc2.finish());
}

TEST(ExprDigest, DeterministicWithinProcess) {
  const sym::Expr n = sym::Expr::symbol("N");
  const sym::Expr e1 = n * n + sym::Expr::constant(2);
  const sym::Expr e2 = sym::Expr::symbol("N") * sym::Expr::symbol("N") +
                       sym::Expr::constant(2);
  EXPECT_EQ(e1, e2);  // hash-consed
  EXPECT_EQ(expr_digest(e1), expr_digest(e2));
  service::ExprDigestMemo memo;
  EXPECT_EQ(expr_digest(e1, memo), expr_digest(e1));
  EXPECT_EQ(expr_digest(e1, memo), expr_digest(e1, memo));
}

TEST(ExprDigest, DistinguishesStructure) {
  const sym::Expr n = sym::Expr::symbol("N");
  const sym::Expr m = sym::Expr::symbol("M");
  std::set<std::string> seen;
  for (const sym::Expr& e :
       {n, m, n + m, n * m, n + n, sym::pow(n, Rational(1, 2)),
        sym::pow(n, Rational(-1, 2)), sym::min({n, m}), sym::max({n, m}),
        sym::Expr::constant(Rational(1, 2)),
        sym::Expr::constant(Rational(-1, 2))}) {
    EXPECT_TRUE(seen.insert(expr_digest(e).hex()).second)
        << "collision on " << e.str();
  }
}

TEST(ProgramDigest, AlphaInequivalentRewritesChangeTheDigest) {
  const Program base = frontend::parse_program(kGemm);
  // Renamed size symbol, renamed array, permuted subscripts, and a changed
  // loop nest are all alpha-INequivalent: each must digest differently.
  const char* variants[] = {
      // N -> M on the k loop only
      "for i in range(N):\n"
      "  for j in range(N):\n"
      "    for k in range(M):\n"
      "      C[i,j] += A[i,k] * B[k,j]\n",
      // renamed output array
      "for i in range(N):\n"
      "  for j in range(N):\n"
      "    for k in range(N):\n"
      "      D[i,j] += A[i,k] * B[k,j]\n",
      // transposed access
      "for i in range(N):\n"
      "  for j in range(N):\n"
      "    for k in range(N):\n"
      "      C[i,j] += A[k,i] * B[k,j]\n",
      // one loop removed
      "for i in range(N):\n"
      "  for k in range(N):\n"
      "    C[i,0] += A[i,k] * B[k,0]\n",
  };
  const Digest base_digest = program_digest(base);
  for (const char* source : variants) {
    EXPECT_NE(program_digest(frontend::parse_program(source)), base_digest)
        << source;
  }
  // ...while re-parsing the identical text digests identically.
  EXPECT_EQ(program_digest(frontend::parse_program(kGemm)), base_digest);
}

TEST(CacheKeyTest, BoundRelevantOptionsAreInTheKey) {
  const Program program = frontend::parse_program(kGemm);
  sdg::SdgOptions a;
  const CacheKey base = make_cache_key(program, a);

  sdg::SdgOptions b = a;
  b.max_subgraph_size = a.max_subgraph_size + 1;
  EXPECT_NE(make_cache_key(program, b), base);

  sdg::SdgOptions c = a;
  c.max_subgraphs = a.max_subgraphs - 1;
  EXPECT_NE(make_cache_key(program, c), base);

  sdg::SdgOptions d = a;
  d.use_cold_bound = !a.use_cold_bound;
  EXPECT_NE(make_cache_key(program, d), base);
}

TEST(CacheKeyTest, ExecutionOnlyOptionsAreExcluded) {
  const Program program = frontend::parse_program(kGemm);
  sdg::SdgOptions a;
  const CacheKey base = make_cache_key(program, a);

  // The determinism contract: these change who computes and how fast, never
  // what is computed, so they must share a cache entry.
  sdg::SdgOptions b = a;
  b.threads = 8;
  b.stop.deadline = support::Deadline::after_ms(1000000);
  EXPECT_EQ(make_cache_key(program, b), base);
}

// Collision smoke over the full registry: two kernels may share a key only
// when they lower to the *identical* program under identical bound-relevant
// options (ludcmp is deliberately encoded with lu's dominant statement —
// the cache deduplicating them is the point), never for distinct content.
TEST(CacheKeyTest, NoCollisionsAcrossTheRegistry) {
  std::map<std::string, std::string> seen;  // digest -> program text
  std::size_t kernels = 0;
  std::size_t shared = 0;
  for (const kernels::KernelEntry& entry :
       kernels::Registry::instance().kernels()) {
    const Program program = entry.build();
    const CacheKey key = make_cache_key(program, entry.options);
    const std::string content =
        program.str() + "\n#" + std::to_string(entry.options.max_subgraph_size) +
        "/" + std::to_string(entry.options.max_subgraphs) + "/" +
        std::to_string(entry.options.use_cold_bound);
    const auto [it, inserted] = seen.emplace(key.digest.hex(), content);
    if (!inserted) {
      ++shared;
      EXPECT_EQ(it->second, content)
          << "cache-key collision on kernel " << entry.name
          << ": equal digest for different content";
    }
    ++kernels;
  }
  EXPECT_GE(kernels, 38u);
  // The registry's only intended duplicate encodings are a handful; a wave
  // of shared keys would mean the digest stopped seeing real differences.
  EXPECT_LE(shared, 3u);
}

#ifdef ANALYZE_TOOL_PATH

std::string json_digest_of(const std::string& command) {
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string output;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int rc = ::pclose(pipe);
  EXPECT_EQ(rc, 0) << command << "\n" << output;
  const std::string needle = "\"digest\":\"";
  const std::size_t at = output.find(needle);
  EXPECT_NE(at, std::string::npos) << output;
  if (at == std::string::npos) return "";
  return output.substr(at + needle.size(), 32);
}

// The headline stability property: two separate processes (fresh intern
// tables, fresh SymIds, different pointer layouts) digest the same program
// text to the same key — and to the same key THIS process computes.
TEST(CacheKeyTest, StableAcrossProcesses) {
  const std::string source_path =
      testing::TempDir() + "/digest_gemm_input.dsl";
  {
    std::ofstream out(source_path);
    out << kGemm;
  }
  const std::string command =
      std::string(ANALYZE_TOOL_PATH) + " --json " + source_path;
  const std::string first = json_digest_of(command);
  const std::string second = json_digest_of(command);
  ASSERT_EQ(first.size(), 32u);
  EXPECT_EQ(first, second);
  const CacheKey local =
      make_cache_key(frontend::parse_program(kGemm), sdg::SdgOptions{});
  EXPECT_EQ(first, local.digest.hex());
  // Bound-relevant flags shift the subprocess digest exactly like the
  // in-process key.
  const std::string shifted =
      json_digest_of(command + " --max-subgraph-size 2");
  EXPECT_NE(shifted, first);
  sdg::SdgOptions small;
  small.max_subgraph_size = 2;
  EXPECT_EQ(shifted,
            make_cache_key(frontend::parse_program(kGemm), small).digest.hex());
  std::remove(source_path.c_str());
}

#endif  // ANALYZE_TOOL_PATH

}  // namespace
}  // namespace soap
