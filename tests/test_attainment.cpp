// The attainment soundness suite (docs/ATTAINMENT.md): across the kernel
// registry, the simulated I/O of the derived tiled schedule under Belady
// (offline-optimal) replacement must never beat the analytic lower bound —
// a valid pebbling upper-bounds what the bound lower-bounds.  Also pins the
// golden attainment ratios for a corpus subset, the determinism of the
// sharded table across thread counts and executors, and the clamp /
// degenerate-tile regressions flushed out while building the subsystem.
// Labeled `attainment` for the TSan CI job and the release soundness gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/attainment.hpp"
#include "attainment_golden.hpp"
#include "bounds/single_statement.hpp"
#include "cachesim/sim.hpp"
#include "frontend/lower.hpp"
#include "kernels/registry.hpp"
#include "schedule/tiling.hpp"
#include "support/executor.hpp"
#include "support/thread_pool.hpp"

namespace soap::analysis {
namespace {

// Sanitizer builds simulate and analyze ~5-15x slower; sweep a
// representative subset there (same pattern as test_sdg_determinism.cpp).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::vector<const kernels::KernelEntry*> corpus_subset() {
  const kernels::Registry& registry = kernels::Registry::instance();
  std::vector<const kernels::KernelEntry*> rows;
  if (kSanitized) {
    // One single-statement and one fused kernel per family.
    for (const char* name :
         {"gemm", "cholesky", "gemver", "lenet5", "softmax", "lulesh",
          "attention", "spmv_csr", "stencil_sweep"}) {
      rows.push_back(&registry.at(name));
    }
    return rows;
  }
  for (const kernels::KernelEntry& k : registry.kernels()) rows.push_back(&k);
  return rows;
}

// --- The soundness invariant over the corpus -------------------------------

TEST(AttainmentSoundness, BeladyNeverBeatsTheBoundAcrossTheCorpus) {
  AttainmentOptions options;
  if (kSanitized) options.cache_sizes = {96};
  options.threads = 0;  // shard across hardware; table is deterministic
  std::vector<AttainmentRow> rows =
      attainment_table(corpus_subset(), options);
  ASSERT_EQ(rows.size(),
            corpus_subset().size() * options.cache_sizes.size());
  for (const AttainmentRow& row : rows) {
    // Q_sim_belady >= floor(Q_lb): offline-optimal replacement of a valid
    // schedule can never need less I/O than the lower bound.
    EXPECT_GE(static_cast<double>(row.Q_sim_belady) + 1e-9,
              std::floor(row.Q_lb))
        << row.kernel << " at S=" << row.S << ": simulated "
        << row.Q_sim_belady << " beats bound " << row.Q_lb;
    EXPECT_TRUE(row.sound()) << row.kernel << " at S=" << row.S;
    // Belady is offline-optimal: LRU can only be worse or equal.
    EXPECT_GE(row.Q_sim_lru, row.Q_sim_belady)
        << row.kernel << " at S=" << row.S;
    EXPECT_GT(row.trace_length, 0u) << row.kernel;
    EXPECT_GT(row.footprint, 0u) << row.kernel;
    EXPECT_EQ(row.fused, row.statements > 1) << row.kernel;
  }
  EXPECT_EQ(count_unsound(rows), 0u);
}

// --- Golden rows -----------------------------------------------------------

TEST(AttainmentGolden, RecordedRatiosStillHold) {
  // Each golden kernel is measured once, at all of its golden S values.
  const kernels::Registry& registry = kernels::Registry::instance();
  std::map<std::string, AttainmentOptions> per_kernel;
  for (const soap::testing::AttainmentGoldenRow& golden :
       soap::testing::attainment_golden_rows()) {
    auto [it, fresh] = per_kernel.try_emplace(golden.name);
    if (fresh) it->second.cache_sizes.clear();
    it->second.cache_sizes.push_back(golden.S);
  }
  std::map<std::pair<std::string, long long>, AttainmentRow> measured;
  for (const auto& [name, options] : per_kernel) {
    for (AttainmentRow& row : measure_kernel(registry.at(name), options)) {
      measured[{name, row.S}] = std::move(row);
    }
  }
  for (const soap::testing::AttainmentGoldenRow& golden :
       soap::testing::attainment_golden_rows()) {
    const AttainmentRow& row = measured.at({golden.name, golden.S});
    EXPECT_NEAR(row.Q_lb, golden.q_lb, 1.0) << golden.name;
    EXPECT_GE(row.ratio(), golden.ratio_lo) << golden.name;
    EXPECT_LE(row.ratio(), golden.ratio_hi) << golden.name;
    EXPECT_TRUE(row.sound()) << golden.name;
  }
}

// --- Determinism across thread counts and executors ------------------------

TEST(AttainmentDeterminism, TableIsBitIdenticalAcrossThreadsAndExecutors) {
  std::vector<const kernels::KernelEntry*> subset;
  const kernels::Registry& registry = kernels::Registry::instance();
  for (const char* name : {"gemm", "cholesky", "gemver", "attention",
                           "spmv_csr", "stencil_sweep"}) {
    subset.push_back(&registry.at(name));
    if (kSanitized && subset.size() == 3) break;
  }
  AttainmentOptions base;
  if (kSanitized) base.cache_sizes = {96};
  const std::vector<AttainmentRow> reference = attainment_table(subset, base);

  auto expect_identical = [&](const std::vector<AttainmentRow>& got,
                              const std::string& label) {
    ASSERT_EQ(got.size(), reference.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const AttainmentRow& a = reference[i];
      const AttainmentRow& b = got[i];
      EXPECT_EQ(a.kernel, b.kernel) << label;
      EXPECT_EQ(a.family, b.family) << label;
      EXPECT_EQ(a.S, b.S) << label;
      EXPECT_EQ(a.statements, b.statements) << label;
      EXPECT_EQ(a.fused, b.fused) << label;
      EXPECT_EQ(a.params, b.params) << label;
      // Raw double equality on purpose: the bound evaluation must be the
      // same arithmetic regardless of which worker ran the row.
      EXPECT_EQ(a.Q_lb, b.Q_lb) << label << " " << a.kernel;
      EXPECT_EQ(a.Q_sim_lru, b.Q_sim_lru) << label << " " << a.kernel;
      EXPECT_EQ(a.Q_sim_belady, b.Q_sim_belady) << label << " " << a.kernel;
      EXPECT_EQ(a.trace_length, b.trace_length) << label << " " << a.kernel;
      EXPECT_EQ(a.footprint, b.footprint) << label << " " << a.kernel;
    }
    EXPECT_EQ(format_attainment_table(got),
              format_attainment_table(reference))
        << label;
  };

  for (std::size_t threads : {std::size_t{2}, std::size_t{8},
                              std::size_t{0}}) {
    AttainmentOptions options = base;
    options.threads = threads;
    expect_identical(attainment_table(subset, options),
                     "threads=" + std::to_string(threads));
  }
  // Injected executors: the explicit serial bypass and a private pool.
  AttainmentOptions serial = base;
  serial.threads = 8;
  serial.executor = support::ExecutorRef::serial();
  expect_identical(attainment_table(subset, serial), "serial executor");
  support::ThreadPool pool(3);
  AttainmentOptions pooled = base;
  pooled.threads = 3;
  pooled.executor = support::ExecutorRef(pool);
  expect_identical(attainment_table(subset, pooled), "private pool");
}

// --- Clamp / degenerate-tile regressions -----------------------------------

constexpr const char* kGemmSource =
    "for i in range(N):\n"
    "  for j in range(N):\n"
    "    for k in range(N):\n"
    "      C[i,j] += A[i,k] * B[k,j]\n";

// S larger than the whole footprint: every tile clamps to the full extent
// and the simulation degenerates to the cold (compulsory-miss) bound.
TEST(AttainmentClamp, CacheLargerThanFootprintHitsColdBound) {
  Program p = frontend::parse_program(kGemmSource);
  const std::map<std::string, long long> params = {{"N", 8}};
  auto bound = bounds::single_statement_bound(p.statements[0]);
  ASSERT_TRUE(bound.has_value());
  const long long huge = 1 << 20;
  auto tiles = schedule::concrete_tiles(p.statements[0], *bound, huge, params);
  for (const auto& [var, tile] : tiles) {
    EXPECT_EQ(tile, 8) << var << " should clamp to the full extent";
  }
  auto m = cachesim::measure_statement(p.statements[0], params, tiles,
                                       static_cast<std::size_t>(huge));
  // All three arrays are read (C via +=), so every distinct address loads
  // exactly once and the dirty C tile flushes once: the cold bound.
  EXPECT_EQ(m.footprint, 3u * 64u);
  EXPECT_EQ(m.belady.loads, 3 * 64);
  EXPECT_EQ(m.belady.io(), 3 * 64 + 64);
  EXPECT_EQ(m.lru.io(), m.belady.io());
}

// S below one tile row: every tile clamps to 1 (never 0), the trace still
// covers the full domain, and the soundness direction holds.
TEST(AttainmentClamp, TinyCacheClampsTilesToOne) {
  Program p = frontend::parse_program(kGemmSource);
  const std::map<std::string, long long> params = {{"N", 8}};
  auto bound = bounds::single_statement_bound(p.statements[0]);
  ASSERT_TRUE(bound.has_value());
  auto tiles = schedule::concrete_tiles(p.statements[0], *bound, 1, params);
  for (const auto& [var, tile] : tiles) {
    EXPECT_GE(tile, 1) << var;
    EXPECT_LE(tile, 8) << var;
  }
  auto m = cachesim::measure_statement(p.statements[0], params, tiles, 1);
  EXPECT_EQ(m.trace_length, 4u * 8 * 8 * 8);  // tiling must not drop points
  EXPECT_LE(bound->Q.eval({{"S", 1.0}, {"N", 8.0}}),
            static_cast<double>(m.belady.io()) + 1e-6);
}

// S = 0 must not crash the simulators (regression: LRU evicted from an
// empty recency list); it is modeled as capacity 1.
TEST(AttainmentClamp, ZeroCapacityBehavesAsCapacityOne) {
  Program p = frontend::parse_program(kGemmSource);
  const std::map<std::string, long long> params = {{"N", 4}};
  auto m0 = cachesim::measure_statement(p.statements[0], params, {}, 0);
  auto m1 = cachesim::measure_statement(p.statements[0], params, {}, 1);
  EXPECT_EQ(m0.lru.io(), m1.lru.io());
  EXPECT_EQ(m0.belady.io(), m1.belady.io());
  EXPECT_GT(m0.lru.io(), 0);
}

// Triangular nests (regression: the extent probe used to pin outer
// variables at their lower bounds, so `for j in range(i)` computed extent
// 1 and clamped every tile to 1 regardless of S).  The extent of the inner
// loop is its worst case N-1, so a crafted sqrt(S) tile lands at 10.
TEST(AttainmentClamp, TriangularLoopTilesUseWorstCaseExtent) {
  Program p = frontend::parse_program(
      "for i in range(N):\n"
      "  for j in range(i):\n"
      "    B[i] += A[i,j] * A[j,i]\n");
  bounds::IoLowerBound bound;
  bound.tiles["j"] = bounds::TileSize{Rational(1, 2), 1.0};
  auto tiles = schedule::concrete_tiles(p.statements[0], bound, 100,
                                        {{"N", 32}});
  EXPECT_EQ(tiles.at("j"), 10);  // round(1.0 * 100^(1/2)), not clamped to 1
  EXPECT_EQ(tiles.at("i"), 32);  // no tile guideline -> full extent
}

}  // namespace
}  // namespace soap::analysis
