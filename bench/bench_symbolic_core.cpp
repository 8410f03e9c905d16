// Microbench for the symbolic engine: every bound the optimizer derives is
// built, canonicalized, compared, and reduced through these operations, so
// this is the substrate of the analysis hot path (see bench_analysis_perf
// for the end-to-end picture).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "support/interner.hpp"
#include "symbolic/expr.hpp"
#include "symbolic/leading.hpp"

namespace {

using soap::Rational;
using soap::sym::Expr;

Expr polynomial_bound(int terms) {
  Expr s = Expr::symbol("S");
  Expr e(0);
  for (int i = 1; i <= terms; ++i) {
    Expr n = Expr::symbol("N" + std::to_string(i % 4));
    e = e + Expr(i) * n * n * n / soap::sym::sqrt(s) + n * n + Expr(2) * n;
  }
  return e;
}

void BM_CanonicalizeSum(benchmark::State& state) {
  int terms = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Expr e = polynomial_bound(terms);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_CanonicalizeSum)->Arg(4)->Arg(16)->Arg(64);

void BM_NumericallyEqual(benchmark::State& state) {
  int terms = static_cast<int>(state.range(0));
  Expr a = polynomial_bound(terms);
  Expr b = polynomial_bound(terms) + Expr(1);
  for (auto _ : state) {
    bool eq = soap::sym::numerically_equal(a, b);
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_NumericallyEqual)->Arg(4)->Arg(64);

void BM_LeadingTerm(benchmark::State& state) {
  int terms = static_cast<int>(state.range(0));
  Expr e = polynomial_bound(terms);
  const soap::SymIdSet small({soap::intern_symbol("S")});
  for (auto _ : state) {
    Expr lead = soap::sym::leading_term_except(e, small);
    benchmark::DoNotOptimize(lead);
  }
}
BENCHMARK(BM_LeadingTerm)->Arg(4)->Arg(64);

void BM_SubstituteAndEval(benchmark::State& state) {
  int terms = static_cast<int>(state.range(0));
  Expr e = polynomial_bound(terms);
  soap::SymMap<double> env;
  for (soap::SymId s : e.symbol_ids()) env.set(s, 1e6);
  env.set("S", 1 << 20);
  for (auto _ : state) {
    double v = e.eval(env);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SubstituteAndEval)->Arg(4)->Arg(64);

// --- Contention microbenches -----------------------------------------------
//
// The intern table used to be one global mutex; these benches put the
// remaining contention (now per-shard) into a number instead of leaving it
// inferred from end-to-end runs.  Two mixes, selected by the `disjoint` arg:
//   disjoint:0 — every thread canonicalizes the *same* expressions, so all
//                threads hammer the same shards (read-mostly probe hits; the
//                worst case for reader-side lock traffic).
//   disjoint:1 — per-thread symbols, so threads touch mostly distinct nodes
//                and shards (the scaling case parallel analysis relies on).
// Per-thread throughput that collapses with thread count on a multicore
// host means shard contention is back; on the 1-thread CI container the
// /threads:N variants only measure oversubscription overhead.

void BM_ParallelMakeNode(benchmark::State& state) {
  const bool disjoint = state.range(0) != 0;
  const int tag = disjoint ? state.thread_index() : 0;
  Expr s = Expr::symbol("S");
  std::vector<Expr> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(
        Expr::symbol("pmn_" + std::to_string(tag) + "_" + std::to_string(i)));
  }
  for (auto _ : state) {
    soap::sym::ExprVec terms;
    for (int i = 0; i < 8; ++i) {
      terms.push_back(Expr(i + 1) * leaves[static_cast<std::size_t>(i)] *
                      leaves[static_cast<std::size_t>((i + 1) % 8)] /
                      soap::sym::sqrt(s));
    }
    Expr e = soap::sym::make_add(std::move(terms));
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ParallelMakeNode)
    ->ArgName("disjoint")
    ->Arg(0)
    ->Arg(1)
    ->ThreadRange(1, 8)
    ->UseRealTime();

void BM_ParallelIntern(benchmark::State& state) {
  const bool disjoint = state.range(0) != 0;
  const int tag = disjoint ? state.thread_index() : 0;
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back("pi_" + std::to_string(tag) + "_" + std::to_string(i));
  }
  for (auto _ : state) {
    for (const std::string& name : names) {
      soap::SymId id = soap::intern_symbol(name);
      benchmark::DoNotOptimize(id);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(names.size()));
}
BENCHMARK(BM_ParallelIntern)
    ->ArgName("disjoint")
    ->Arg(0)
    ->Arg(1)
    ->ThreadRange(1, 8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
