// Identity semantics of the hash-consed symbolic core: the interner, node
// deduplication (pointer-identity equality), cached hashes/symbol sets, and
// the memoized rewriters on DAG-shaped (heavily shared) expressions.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/interner.hpp"
#include "support/sym_map.hpp"
#include "symbolic/expr.hpp"
#include "test_util.hpp"

namespace soap::sym {
namespace {

Expr N() { return Expr::symbol("N"); }
Expr S() { return Expr::symbol("S"); }

TEST(Interner, RoundTripsNames) {
  SymId a = intern_symbol("hc_alpha");
  SymId b = intern_symbol("hc_beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(intern_symbol("hc_alpha"), a);  // idempotent
  EXPECT_EQ(symbol_name(a), "hc_alpha");
  EXPECT_EQ(symbol_name(b), "hc_beta");
  EXPECT_GE(interned_symbol_count(), 2u);
  EXPECT_THROW(testing::sink(symbol_name(SymId{})), std::out_of_range);
}

TEST(Interner, ConcurrentInterningIsConsistent) {
  // The intern table is shared and mutex-guarded; hammer it from several
  // threads and verify every thread resolved the same name to the same id.
  constexpr int kThreads = 8;
  std::vector<std::vector<SymId>> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int i = 0; i < 64; ++i) {
        ids[static_cast<std::size_t>(t)].push_back(
            intern_symbol("hc_thread_" + std::to_string(i)));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], ids[0]);
  }
}

TEST(HashConsing, EqualByConstructionMeansSameNode) {
  Expr a = Expr(2) * N() * N() * N() / sqrt(S());
  Expr b = N() * Expr(2) / pow(S(), Rational(1, 2)) * N() * N();
  ASSERT_EQ(a, b);
  EXPECT_EQ(&a.node(), &b.node());  // the very same interned node
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.id(), b.id());

  // Different expressions are different nodes.
  Expr c = a + Expr(1);
  EXPECT_NE(&a.node(), &c.node());
}

TEST(HashConsing, SymbolNodesAreShared) {
  Expr n1 = Expr::symbol("N");
  Expr n2 = Expr::symbol("N");
  EXPECT_EQ(&n1.node(), &n2.node());
  EXPECT_EQ(n1.sym_id(), intern_symbol("N"));
  EXPECT_EQ(&Expr::symbol(n1.sym_id()).node(), &n1.node());
}

TEST(HashConsing, DeadNodesAreEvicted) {
  InternStats before = expr_intern_stats();
  {
    Expr big(0);
    for (int i = 0; i < 50; ++i) {
      big = big + Expr::symbol("hc_evict") * Expr(i + 1) *
                      pow(N(), Rational(i % 7 + 2));
    }
    InternStats during = expr_intern_stats();
    EXPECT_GT(during.live_nodes, before.live_nodes);
  }
  InternStats after = expr_intern_stats();
  // Everything allocated inside the scope died with its last reference;
  // the table returns to (at most) its prior size plus the shared leaf
  // nodes that pre-existed.
  EXPECT_LE(after.live_nodes, before.live_nodes + 4);
}

TEST(HashConsing, ConcurrentMakeConvergesToSameNode) {
  // Many threads race make_* on structurally equal expressions; the sharded
  // intern table must hand every thread the very same canonical node (the
  // pointer-identity invariant everything above relies on), shard locks or
  // not.  Each round uses fresh structure so at least one thread loses the
  // probe-then-insert race every time.
  constexpr int kThreads = 8;
  constexpr int kRounds = 100;
  std::vector<std::vector<Expr>> built(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &built, &ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start together to maximize racing
      std::vector<Expr>& mine = built[static_cast<std::size_t>(t)];
      mine.reserve(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        Expr n = Expr::symbol("hc_race_n");
        Expr s = Expr::symbol("hc_race_s");
        mine.push_back(Expr(r + 2) * n * n / sqrt(s) + pow(n, Rational(r + 2)) +
                       min({n, s + Expr(r)}));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      const Expr& a = built[0][static_cast<std::size_t>(r)];
      const Expr& b = built[static_cast<std::size_t>(t)][
          static_cast<std::size_t>(r)];
      ASSERT_EQ(a, b);
      ASSERT_EQ(&a.node(), &b.node());  // pointer-identical across threads
      ASSERT_EQ(a.id(), b.id());
    }
  }
}

TEST(HashConsing, ConcurrentDisjointInterningIsConsistent) {
  // Per-thread expression families (disjoint symbols -> mostly disjoint
  // shards) interned concurrently; each must match a serial rebuild.
  constexpr int kThreads = 8;
  std::vector<Expr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &results] {
      Expr x = Expr::symbol("hc_dis_" + std::to_string(t));
      Expr acc(0);
      for (int i = 1; i <= 20; ++i) {
        acc = acc + Expr(i) * pow(x, Rational(i % 5 + 1));
      }
      results[static_cast<std::size_t>(t)] = acc;
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    Expr x = Expr::symbol("hc_dis_" + std::to_string(t));
    Expr acc(0);
    for (int i = 1; i <= 20; ++i) {
      acc = acc + Expr(i) * pow(x, Rational(i % 5 + 1));
    }
    EXPECT_EQ(results[static_cast<std::size_t>(t)], acc);
    EXPECT_EQ(&results[static_cast<std::size_t>(t)].node(), &acc.node());
  }
}

TEST(HashConsing, EvictionRaceUnderChurn) {
  // The lifetime contract: weak eviction, where the node deleter re-locks
  // the owning shard to erase its table entry and then frees the node.
  // Race creation and destruction of
  // *structurally equal* temporaries across threads so deleters interleave
  // with probes that find the dying entry (the weak_ptr::lock-fails path),
  // then check the table drains back to its pre-test size.
  InternStats before = expr_intern_stats();
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int r = 0; r < kRounds; ++r) {
        // Same structure in every thread at the same round: maximal
        // create/evict contention on the same nodes.
        Expr e = Expr::symbol("hc_churn") * Expr(r % 16 + 1) +
                 pow(Expr::symbol("hc_churn2"), Rational(r % 5 + 2));
        Expr f = e * e + Expr(1);
        testing::sink(f);
        // e and f drop here; their deleters erase the shard entries while
        // sibling threads may be interning the same structural nodes.
      }
    });
  }
  for (std::thread& th : threads) th.join();
  InternStats after = expr_intern_stats();
  // Every temporary died with its last reference.  Headroom: the handful of
  // leaf nodes pinned process-wide (the small-constant cache and the zero
  // node) that this test may have been the first to intern.
  EXPECT_LE(after.live_nodes, before.live_nodes + 8);
  // The table is still consistent after the churn.
  Expr n1 = Expr::symbol("hc_churn");
  Expr n2 = Expr::symbol("hc_churn");
  EXPECT_EQ(&n1.node(), &n2.node());
}

TEST(HashConsing, CachedSymbolSets) {
  Expr e = N() * S() + Expr::symbol("T3") * N();
  EXPECT_TRUE(e.contains(intern_symbol("T3")));
  EXPECT_TRUE(e.contains(intern_symbol("N")));
  EXPECT_FALSE(e.contains(intern_symbol("hc_not_there")));
  EXPECT_EQ(e.symbol_ids().size(), 3u);
  // symbols() reports names sorted by name regardless of intern order.
  std::vector<std::string> names = e.symbols();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

/// Builds a deeply shared (DAG-shaped) expression: x_{k} = x_{k-1}^2 + 1.
/// As a tree it has ~2^k leaves; hash-consed it is k distinct nodes per
/// level, so only memoized rewriting can finish fast.
Expr dag_tower(const Expr& base, int levels) {
  Expr x = base;
  for (int i = 0; i < levels; ++i) {
    x = x * x + Expr(1);
  }
  return x;
}

TEST(MemoizedRewriters, SubsOnSharedDag) {
  Expr x = dag_tower(N() + S(), 24);
  // Substituting S -> 3 touches every level once; without node-identity
  // memoization this walk would be ~2^24 visits.
  Expr sub = x.subs({{"S", Expr(3)}});
  EXPECT_FALSE(sub.contains(intern_symbol("S")));
  EXPECT_TRUE(sub.contains(intern_symbol("N")));
  // Spot-check semantics on a small instance of the same shape.
  Expr small = dag_tower(N() + S(), 2);
  EXPECT_EQ(small.subs({{"S", Expr(3)}}), dag_tower(N() + Expr(3), 2));
}

TEST(MemoizedRewriters, SubsLeavesUntouchedSubtreesAlone) {
  Expr e = dag_tower(N(), 8);
  Expr sub = e.subs({{"hc_unused", Expr(7)}});
  EXPECT_EQ(&sub.node(), &e.node());  // no rebuild at all
}

TEST(MemoizedRewriters, DiffOnSharedDag) {
  Expr x = dag_tower(N(), 16);
  Expr d = x.diff(intern_symbol("N"));
  // d/dN of the tower is huge but the computation must terminate quickly;
  // check the derivative at a point against a numeric difference quotient
  // on a small instance.
  EXPECT_TRUE(d.contains(intern_symbol("N")));
  Expr small = dag_tower(N(), 3);
  Expr ds = small.diff(intern_symbol("N"));
  double n0 = 1.25, h = 1e-6;
  double num = (small.eval({{"N", n0 + h}}) - small.eval({{"N", n0 - h}})) /
               (2 * h);
  EXPECT_NEAR(ds.eval({{"N", n0}}), num, 1e-3);
  // Derivative by unused symbol short-circuits through the symbol cache.
  EXPECT_TRUE(x.diff(intern_symbol("hc_unused")).is_zero());
}

TEST(MemoizedRewriters, EvalOnSharedDag) {
  Expr x = dag_tower(N(), 40);
  // Tree size saturates (~2^40 nodes); memoized eval visits ~40.  The value
  // itself overflows double to +inf around level 11 — harmless; the point is
  // that the walk terminates and stays positive.
  double v = x.eval({{"N", 0.0}});
  EXPECT_GT(v, 1.0);  // 0 -> 1 -> 2 -> 5 -> ... (-> inf)
  // A small instance stays finite and exact: 0 -> 1 -> 2 -> 5 -> 26.
  EXPECT_DOUBLE_EQ(dag_tower(N(), 4).eval({{"N", 0.0}}), 26.0);
}

TEST(MinMax, SubstitutionFoldsAndPreservesSemantics) {
  Expr m = min({N(), S()});
  // Substituting both arguments to constants folds the min away.
  EXPECT_EQ(m.subs({{"N", Expr(3)}, {"S", Expr(7)}}), Expr(3));
  Expr mx = max({N(), S(), Expr(5)});
  EXPECT_EQ(mx.subs({{"N", Expr(3)}, {"S", Expr(7)}}), Expr(7));
  // Partial substitution keeps a canonical (deduplicated) min/max.
  Expr partial = m.subs({{"S", N()}});
  EXPECT_EQ(partial, N());  // min(N, N) == N
  // Min under substitution that makes arguments equal-by-construction.
  Expr m2 = min({N() * S(), S() * N(), S() + N()});
  EXPECT_EQ(m2.operands().size(), 2u);
}

TEST(StdHash, ExprUsableInUnorderedContainers) {
  std::unordered_set<Expr> set;
  set.insert(N() + S());
  set.insert(S() + N());      // same canonical node
  set.insert(N() * S());
  EXPECT_EQ(set.size(), 2u);
  std::unordered_map<Expr, int> counts;
  counts[N() + S()] += 1;
  counts[S() + N()] += 1;
  EXPECT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[N() + S()], 2);
}

TEST(NumericEquality, SeedAndTrialsAreReproducible) {
  Expr a = (N() + S()) * (N() - S());
  Expr b = N() * N() - S() * S();
  NumericEqualityOptions options;
  options.trials = 12;
  options.seed = 0xdeadbeefcafef00dULL;
  EXPECT_TRUE(numerically_equal(a, b, options));
  EXPECT_FALSE(numerically_equal(a, b + Expr(1), options));
  // Same options, same verdict (deterministic sampling).
  EXPECT_TRUE(numerically_equal(a, b, options));
}

TEST(SymMapContainer, BasicOperations) {
  SymMap<int> m;
  SymId a = intern_symbol("hc_sm_a");
  SymId b = intern_symbol("hc_sm_b");
  EXPECT_TRUE(m.empty());
  m.set(a, 1);
  m.set(b, 2);
  m.set(a, 3);  // overwrite
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(a), nullptr);
  EXPECT_EQ(*m.find(a), 3);
  EXPECT_TRUE(m.contains(b));
  m.erase(b);
  EXPECT_FALSE(m.contains(b));
  m[b] = 9;  // operator[] default-inserts
  EXPECT_EQ(*m.find(b), 9);
}

}  // namespace
}  // namespace soap::sym
