// End-to-end soundness fuzzing: for randomly generated SOAP programs, the
// analytic lower bound evaluated at concrete sizes must never exceed the
// I/O of an actual (simulated, Belady-replacement) execution — a valid
// pebbling upper-bounds the optimum, which the bound claims to lower-bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include <algorithm>
#include <utility>
#include <vector>

#include "bounds/single_statement.hpp"
#include "cachesim/sim.hpp"
#include "frontend/lower.hpp"
#include "schedule/tiling.hpp"
#include "schedule/trace.hpp"

namespace soap {
namespace {

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                     hi - lo + 1));
  }
};

// Random d-dimensional time stencil with random offset sets.
std::string random_stencil(Rng& rng, int dims) {
  std::ostringstream src;
  const char* vars[] = {"i", "j", "k"};
  src << "for t in range(T):\n";
  std::string indent = "  ";
  for (int d = 0; d < dims; ++d) {
    src << indent << "for " << vars[d] << " in range(2, N - 2):\n";
    indent += "  ";
  }
  auto point = [&](const std::vector<int>& off, int dt) {
    std::string s = "A[";
    for (int d = 0; d < dims; ++d) {
      s += std::string(vars[d]) +
           (off[d] ? (off[d] > 0 ? "+" + std::to_string(off[d])
                                 : std::to_string(off[d]))
                   : "") +
           ",";
    }
    s += dt ? "t+1]" : "t]";
    return s;
  };
  src << indent << point(std::vector<int>(dims, 0), 1) << " = ";
  int points = rng.range(2, 5);
  for (int p = 0; p < points; ++p) {
    std::vector<int> off(dims);
    for (int d = 0; d < dims; ++d) off[d] = rng.range(-2, 2);
    if (p) src << " + ";
    src << point(off, 0);
  }
  src << "\n";
  return src.str();
}

// Random contraction: Out[sel of vars] += In1[sel] * In2[sel].
std::string random_contraction(Rng& rng) {
  int depth = rng.range(2, 4);
  const char* vars[] = {"i", "j", "k", "l"};
  std::ostringstream src;
  std::string indent;
  for (int d = 0; d < depth; ++d) {
    src << indent << "for " << vars[d] << " in range(N):\n";
    indent += "  ";
  }
  auto subset = [&](int forbidden_mask) {
    int mask = 0;
    while (mask == 0 || mask == forbidden_mask) {
      mask = rng.range(1, (1 << depth) - 1);
    }
    std::string s;
    for (int d = 0; d < depth; ++d) {
      if (mask & (1 << d)) s += std::string(s.empty() ? "" : ",") + vars[d];
    }
    return std::pair<int, std::string>(mask, s);
  };
  auto [out_mask, out_sub] = subset(0);
  auto [a_mask, a_sub] = subset(0);
  auto [b_mask, b_sub] = subset(0);
  (void)a_mask;
  (void)b_mask;
  src << indent << "Out[" << out_sub << "] += In1[" << a_sub << "] * In2["
      << b_sub << "]\n";
  return src.str();
}

void check_sound(const std::string& source,
                 const std::map<std::string, long long>& params,
                 std::size_t S) {
  Program p;
  try {
    p = frontend::parse_program(source);
  } catch (const std::exception& e) {
    FAIL() << "generated program failed to parse: " << e.what() << "\n"
           << source;
  }
  auto bound = bounds::single_statement_bound(p.statements[0]);
  if (!bound) return;  // unbounded reuse: nothing to check
  SymMap<double> env = {{"S", static_cast<double>(S)}};
  for (const auto& [k, v] : params) env.set(k, static_cast<double>(v));
  double analytic = bound->Q.eval(env);
  // A concrete execution in the natural order with offline-optimal
  // replacement is a valid pebbling: its I/O upper-bounds the optimum.
  auto m = cachesim::measure_statement(p.statements[0], params, {}, S);
  EXPECT_LE(analytic, static_cast<double>(m.belady.io()) * 1.0 + 1e-6)
      << source << "analytic " << analytic << " vs simulated "
      << m.belady.io() << " at S=" << S;
  // And the derived tiling must stay a valid schedule too.
  auto tiles = schedule::concrete_tiles(p.statements[0], *bound,
                                        static_cast<long long>(S), params);
  auto mt = cachesim::measure_statement(p.statements[0], params, tiles, S);
  EXPECT_LE(analytic, static_cast<double>(mt.belady.io()) + 1e-6) << source;
}

// The multiset of (address, is_write) accesses of a tiled execution —
// generated through the SAME TraceBuilder so element ids agree — must equal
// the natural order's: tiling reorders iterations, it must never drop,
// duplicate, or invent any.
void check_tiling_preserves_accesses(
    const Statement& st, const std::map<std::string, long long>& params,
    const std::map<std::string, long long>& tiles) {
  schedule::TraceBuilder builder;
  builder.append_natural(st, params);
  const std::size_t natural_len = builder.trace().size();
  builder.append_tiled(st, params, tiles);
  using Key = std::pair<std::uint64_t, bool>;
  std::vector<Key> natural, tiled;
  for (std::size_t i = 0; i < builder.trace().size(); ++i) {
    const schedule::Access& a = builder.trace()[i];
    (i < natural_len ? natural : tiled).emplace_back(a.address, a.write);
  }
  ASSERT_EQ(tiled.size(), natural.size());
  std::sort(natural.begin(), natural.end());
  std::sort(tiled.begin(), tiled.end());
  EXPECT_EQ(tiled, natural);
}

// Any legal tiling — not just the optimizer's — is a valid schedule, so
// the bound must hold for random tile shapes too (including tiles larger
// than the extent, which clamp inside the trace generator).
void check_random_tiling_sound(Rng& rng, const std::string& source,
                               const std::map<std::string, long long>& params,
                               std::size_t S) {
  Program p;
  try {
    p = frontend::parse_program(source);
  } catch (const std::exception& e) {
    FAIL() << "generated program failed to parse: " << e.what() << "\n"
           << source;
  }
  const Statement& st = p.statements[0];
  std::map<std::string, long long> tiles;
  for (const Loop& loop : st.domain.loops()) {
    tiles[loop.var] = rng.range(1, 9);
  }
  check_tiling_preserves_accesses(st, params, tiles);
  auto bound = bounds::single_statement_bound(st);
  if (!bound) return;  // unbounded reuse: nothing to check
  SymMap<double> env = {{"S", static_cast<double>(S)}};
  for (const auto& [k, v] : params) env.set(k, static_cast<double>(v));
  auto m = cachesim::measure_statement(st, params, tiles, S);
  EXPECT_LE(bound->Q.eval(env), static_cast<double>(m.belady.io()) + 1e-6)
      << source << "with random tiles at S=" << S;
}

class StencilFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StencilFuzz, BoundNeverExceedsSimulatedIo) {
  Rng rng{0x9e3779b97f4a7c15ULL ^
          (static_cast<std::uint64_t>(GetParam()) * 0x2545F4914F6CDD1DULL)};
  int dims = rng.range(1, 2);
  std::string src = random_stencil(rng, dims);
  long long n = dims == 1 ? 40 : 16;
  long long t = 6;
  std::size_t S = static_cast<std::size_t>(rng.range(16, 64));
  check_sound(src, {{"N", n}, {"T", t}}, S);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StencilFuzz, ::testing::Range(0, 12));

class ContractionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ContractionFuzz, BoundNeverExceedsSimulatedIo) {
  Rng rng{0xD1B54A32D192ED03ULL ^
          (static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL)};
  std::string src = random_contraction(rng);
  std::size_t S = static_cast<std::size_t>(rng.range(24, 96));
  check_sound(src, {{"N", 10}}, S);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractionFuzz, ::testing::Range(0, 12));

class RandomTilingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomTilingFuzz, RandomTilesStaySoundAndCoverTheDomain) {
  Rng rng{0xA0761D6478BD642FULL ^
          (static_cast<std::uint64_t>(GetParam()) * 0xE7037ED1A0B428DBULL)};
  if (rng.range(0, 1) == 0) {
    int dims = rng.range(1, 2);
    std::string src = random_stencil(rng, dims);
    long long n = dims == 1 ? 40 : 16;
    std::size_t S = static_cast<std::size_t>(rng.range(16, 64));
    check_random_tiling_sound(rng, src, {{"N", n}, {"T", 6}}, S);
  } else {
    std::string src = random_contraction(rng);
    std::size_t S = static_cast<std::size_t>(rng.range(24, 96));
    check_random_tiling_sound(rng, src, {{"N", 10}}, S);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTilingFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace soap
