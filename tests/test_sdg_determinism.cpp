// Cross-thread-count and cross-schedule determinism of the SDG analysis:
// for every registered corpus application the full MultiStatementBound — Q
// renderings, per-array rho expressions and reference values (compared
// bit-exactly), best subgraphs, and subgraph counts — must be identical for
// threads = 2 / 8 / 0(hardware) to the threads = 1 run, where the
// derivation is a plain enumerate -> analyze -> append loop (the
// determinism reference).  The parallel_map fan-out is also checked against
// a level-synchronous oracle rebuilt here from the public per-subgraph
// steps.  Expr comparisons use
// operator==, which under hash-consing is pointer identity: the strongest
// possible "bit-identical" statement within a run.  Labeled `parallel` for
// the TSan CI job.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bounds/intensity.hpp"
#include "bounds/optimizer.hpp"
#include "fault_executor.hpp"
#include "frontend/lower.hpp"
#include "kernels/table2.hpp"
#include "sdg/merge.hpp"
#include "sdg/multi_statement.hpp"
#include "sdg/subgraph.hpp"
#include "support/executor.hpp"
#include "support/interner.hpp"
#include "support/parallel.hpp"
#include "support/sym_map.hpp"
#include "support/thread_pool.hpp"

namespace soap::sdg {
namespace {

// Sanitizer builds run the analyzer ~5-15x slower; keep the corpus sweep to
// a representative subset there (fusion-heavy, stencil, neural, and
// cold-bound rows) so the suite stays inside CI budgets.
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

std::vector<std::string> corpus_names() {
  if (kSanitized) {
    return {"gemm", "cholesky", "jacobi2d", "atax",   "mvt",
            "bicg", "gesummv",  "2mm",      "lulesh", "softmax",
            "horizontal_diffusion",
            // Post-paper families: one fused-accounting attention variant
            // and the data-dependent sparse row.
            "flash_attention", "spmv_csr"};
  }
  // The whole registered corpus — every family, including the post-paper
  // ones, sweeps threads = 1/2/8/0.
  std::vector<std::string> names;
  for (const auto& k : kernels::Registry::instance().kernels()) {
    names.push_back(k.name);
  }
  return names;
}

// Everything observable about a bound, with expressions kept as interned
// nodes so equality is pointer identity and doubles kept raw so equality is
// bit-exact.
struct Snapshot {
  sym::Expr q_leading, q_sdg, q_cold;
  std::size_t subgraphs = 0;
  std::vector<std::string> arrays;
  std::vector<sym::Expr> rhos;
  std::vector<double> rho_values;
  std::vector<std::vector<std::string>> best_subgraphs;
};

Snapshot snapshot(const Program& program, SdgOptions options,
                  std::size_t threads) {
  options.threads = threads;
  auto bound = multi_statement_bound(program, options);
  Snapshot s;
  if (!bound) return s;
  s.q_leading = bound->Q_leading;
  s.q_sdg = bound->Q_sdg;
  s.q_cold = bound->Q_cold;
  s.subgraphs = bound->subgraphs_evaluated;
  for (const ArrayBound& a : bound->per_array) {
    s.arrays.push_back(a.array);
    s.rhos.push_back(a.rho);
    s.rho_values.push_back(a.rho_value);
    s.best_subgraphs.push_back(a.best_subgraph);
  }
  return s;
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& label) {
  EXPECT_EQ(a.q_leading, b.q_leading) << label;
  EXPECT_EQ(a.q_sdg, b.q_sdg) << label;
  EXPECT_EQ(a.q_leading.str(), b.q_leading.str()) << label;
  EXPECT_EQ(a.q_cold, b.q_cold) << label;
  EXPECT_EQ(a.subgraphs, b.subgraphs) << label;
  ASSERT_EQ(a.arrays.size(), b.arrays.size()) << label;
  for (std::size_t i = 0; i < a.arrays.size(); ++i) {
    EXPECT_EQ(a.arrays[i], b.arrays[i]) << label;
    EXPECT_EQ(a.rhos[i], b.rhos[i]) << label << " rho of " << a.arrays[i];
    // Bit-exact double comparison is the point: the parallel reduction must
    // not reassociate anything.
    EXPECT_EQ(a.rho_values[i], b.rho_values[i])
        << label << " rho value of " << a.arrays[i];
    EXPECT_EQ(a.best_subgraphs[i], b.best_subgraphs[i])
        << label << " best subgraph of " << a.arrays[i];
  }
}

class CorpusDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusDeterminism, BitIdenticalAcrossThreadCounts) {
  const kernels::KernelEntry& k = kernels::kernel_by_name(GetParam());
  Program program = k.build();
  Snapshot serial = snapshot(program, k.options, 1);
  for (std::size_t threads :
       {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    Snapshot parallel = snapshot(program, k.options, threads);
    expect_identical(serial, parallel,
                     k.name + " @" + std::to_string(threads) + " threads");
  }
}

// Level-synchronous oracle: an independent schedule rebuilt from the
// public per-subgraph steps (merge -> chi -> minimize -> eval).  Each enumeration level is materialized, sharded with
// parallel_map, and reduced in canonical order after a barrier; the
// per-array best candidate (ties keep the earliest-enumerated subgraph) is
// what MultiStatementBound::per_array must report.
struct Candidate {
  std::vector<std::string> arrays;
  sym::Expr rho;
  double rho_value = 0.0;
};

struct LevelSyncOracle {
  std::size_t subgraphs = 0;
  std::map<std::string, Candidate> best;
};

double reference_value(const sym::Expr& rho) {
  SymMap<double> env;
  for (SymId v : rho.symbol_ids()) env.set(v, 1.0);
  env.set(intern_symbol("S"), double{1 << 20});
  return rho.eval(env);
}

LevelSyncOracle level_sync_oracle(const Program& program,
                                  const SdgOptions& options,
                                  std::size_t threads) {
  Sdg sdg = Sdg::build(program);
  std::vector<std::vector<std::vector<std::string>>> levels;
  for (auto& arrays : enumerate_subgraphs(sdg, options.max_subgraph_size,
                                          options.max_subgraphs)) {
    if (levels.empty() || levels.back().front().size() != arrays.size()) {
      levels.emplace_back();
    }
    levels.back().push_back(std::move(arrays));
  }
  support::ParallelOptions par;
  par.threads = threads;
  LevelSyncOracle oracle;
  for (const auto& level : levels) {
    auto slots = support::parallel_map<std::optional<Candidate>>(
        level.size(), par, [&](std::size_t i) -> std::optional<Candidate> {
          MergedSubgraph merged = merge_subgraph(sdg, level[i]);
          auto chi = bounds::derive_chi(merged.problem, options.stop,
                                        options.optimizer);
          if (!chi) return std::nullopt;
          sym::Expr rho = bounds::minimize_intensity(*chi).rho;
          double value = reference_value(rho);
          if (!std::isfinite(value) || value <= 0) return std::nullopt;
          return Candidate{level[i], rho, value};
        });
    for (std::optional<Candidate>& slot : slots) {
      if (!slot) continue;
      ++oracle.subgraphs;
      for (const std::string& array : slot->arrays) {
        auto [it, inserted] = oracle.best.try_emplace(array, *slot);
        if (!inserted && slot->rho_value > it->second.rho_value) {
          it->second = *slot;
        }
      }
    }
  }
  return oracle;
}

TEST_P(CorpusDeterminism, PipelinedMatchesLevelSyncAtEveryThreadCount) {
  // The whole-enumeration parallel_map fan-out (the test keeps its
  // historical name) must reproduce the level-synchronous schedule's
  // per-array bounds bit for bit at every thread count (pointer-identical
  // Exprs, bit-exact doubles, same best subgraphs and subgraph count).
  const kernels::KernelEntry& k = kernels::kernel_by_name(GetParam());
  Program program = k.build();
  LevelSyncOracle oracle = level_sync_oracle(program, k.options, 8);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                              std::size_t{0}}) {
    Snapshot pipelined = snapshot(program, k.options, threads);
    const std::string label = k.name + " pipelined @" +
                              std::to_string(threads) +
                              " threads vs level-sync";
    EXPECT_EQ(pipelined.subgraphs, oracle.subgraphs) << label;
    EXPECT_FALSE(pipelined.arrays.empty()) << label;
    for (std::size_t i = 0; i < pipelined.arrays.size(); ++i) {
      const std::string& array = pipelined.arrays[i];
      auto it = oracle.best.find(array);
      if (it == oracle.best.end()) {
        EXPECT_EQ(pipelined.rhos[i], sym::Expr(0)) << label << " " << array;
        EXPECT_TRUE(pipelined.best_subgraphs[i].empty())
            << label << " " << array;
        continue;
      }
      EXPECT_EQ(pipelined.rhos[i], it->second.rho)
          << label << " rho of " << array;
      EXPECT_EQ(pipelined.rho_values[i], it->second.rho_value)
          << label << " rho value of " << array;
      EXPECT_EQ(pipelined.best_subgraphs[i], it->second.arrays)
          << label << " best subgraph of " << array;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, CorpusDeterminism,
                         ::testing::ValuesIn(corpus_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

TEST(SdgDeterminism, ChainProgramAcrossThreadCountsIncludingHardware) {
  // The bench_sdg_scaling shape: a statement chain with a dense level-2/3
  // subgraph population, where sharding actually interleaves.
  std::string src;
  std::string prev = "a0";
  const int statements = kSanitized ? 8 : 16;
  for (int i = 1; i <= statements; ++i) {
    std::string cur = "a" + std::to_string(i);
    src += "for i in range(N):\n  for j in range(N):\n    " + cur +
           "[i,j] = " + prev + "[i,j]\n";
    prev = cur;
  }
  Program p = frontend::parse_program(src);
  SdgOptions opt;
  opt.max_subgraph_size = 3;
  Snapshot serial = snapshot(p, opt, 1);
  EXPECT_GT(serial.subgraphs, 0u);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    expect_identical(serial, snapshot(p, opt, threads),
                     "chain @" + std::to_string(threads) + " threads");
  }
}

TEST(SdgDeterminism, AnalyzeKernelThreadOverrideMatchesSerial) {
  // The public entry points: the thread-budget override must not change the
  // derived bound (pointer-identical under hash-consing).
  for (const char* name : {"gemm", "mvt", "atax"}) {
    const kernels::KernelEntry& k = kernels::kernel_by_name(name);
    sym::Expr serial = kernels::analyze_kernel(k);
    EXPECT_EQ(kernels::analyze_kernel(k, 8), serial) << name;
    EXPECT_EQ(kernels::analyze_kernel(k, 0), serial) << name;
  }
}

TEST(SdgDeterminism, InjectedExecutorsDoNotChangeTheBound) {
  // SdgOptions::executor swaps where helpers run; the bound must not care.
  Program p = frontend::parse_program(R"(
for i in range(M):
  for j in range(N):
    tmp[i] += A[i,j] * x[j]
for i in range(M):
  for j in range(N):
    y[j] += A[i,j] * tmp[i]
)");
  SdgOptions opt;
  Snapshot serial = snapshot(p, opt, 1);
  {
    support::ThreadPool private_pool(2);
    SdgOptions with_pool;
    with_pool.threads = 8;
    with_pool.executor = support::ExecutorRef(private_pool);
    expect_identical(serial, snapshot(p, with_pool, 8), "private pool");
  }
  {
    SdgOptions inline_only;
    inline_only.threads = 8;
    inline_only.executor = support::ExecutorRef::serial();
    expect_identical(serial, snapshot(p, inline_only, 8), "serial executor");
  }
}

TEST(SdgDeterminism, FaultInjectionSweepStaysBitIdentical) {
  // A seeded delay/drop/reorder matrix over the helper executor: the
  // fault-injection harness perturbs where and when helpers run, never what
  // is computed — every seeded adversarial schedule must reproduce the
  // serial bound bit for bit (docs/ROBUSTNESS.md, fault-injection sweep).
  support::ThreadPool pool(4);
  const std::vector<std::uint64_t> seeds =
      kSanitized ? std::vector<std::uint64_t>{41}
                 : std::vector<std::uint64_t>{41, 42, 43};
  for (const char* name : {"atax", "2mm", "softmax"}) {
    const kernels::KernelEntry& k = kernels::kernel_by_name(name);
    Program program = k.build();
    Snapshot serial = snapshot(program, k.options, 1);
    for (std::uint64_t seed : seeds) {
      support::FaultPlan plan;
      plan.seed = seed;
      plan.delay_permille = 250;
      plan.delay_max_us = 100;
      plan.drop_permille = 250;
      plan.reorder_window = 4;
      support::FaultInjectingExecutor exec(pool, plan);
      SdgOptions faulty = k.options;
      faulty.executor = support::ExecutorRef(exec);
      expect_identical(serial, snapshot(program, faulty, 4),
                       std::string(name) + " under fault seed " +
                           std::to_string(seed));
    }
  }
}

TEST(SdgDeterminism, EveryOptimizerBackendIsDeterministicAcrossThreads) {
  // The backend contract (docs/OPTIMIZER.md): a backend is a pure function
  // of (problem, request), so under EVERY backend — including the
  // stochastic multistart, whose jitter comes from a fixed stream — the
  // full bound must stay bit-identical across thread counts and
  // injected executors, exactly like the default.
  support::ThreadPool private_pool(2);
  for (const char* name : {"gemm", "atax", "softmax"}) {
    const kernels::KernelEntry& k = kernels::kernel_by_name(name);
    Program program = k.build();
    for (bounds::opt::BackendKind backend :
         {bounds::opt::BackendKind::kNelderMead,
          bounds::opt::BackendKind::kMultistart,
          bounds::opt::BackendKind::kSubplex}) {
      SdgOptions options = k.options;
      options.optimizer = backend;
      const std::string label = std::string(name) + " backend " +
                                bounds::opt::backend_name(backend);
      Snapshot serial = snapshot(program, options, 1);
      expect_identical(serial, snapshot(program, options, 8),
                       label + " @8 threads");
      SdgOptions with_pool = options;
      with_pool.executor = support::ExecutorRef(private_pool);
      expect_identical(serial, snapshot(program, with_pool, 8),
                       label + " @8 threads, private pool");
    }
  }
}

TEST(SdgDeterminism, RepeatedParallelRunsAreStable) {
  // Same thread count, repeated runs: schedules differ, results must not.
  Program p = frontend::parse_program(R"(
for i in range(M):
  for j in range(N):
    tmp[i] += A[i,j] * x[j]
for i in range(M):
  for j in range(N):
    y[j] += A[i,j] * tmp[i]
)");
  SdgOptions opt;
  Snapshot first = snapshot(p, opt, 8);
  for (int round = 0; round < 5; ++round) {
    expect_identical(first, snapshot(p, opt, 8),
                     "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace soap::sdg
