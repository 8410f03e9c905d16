#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <limits>
#include <list>
#include <optional>
#include <queue>
#include <random>
#include <unordered_map>

#include "analysis/attainment.hpp"
#include "bounds/single_statement.hpp"
#include "cachesim/sim.hpp"
#include "frontend/lower.hpp"
#include "kernels/registry.hpp"
#include "schedule/codegen.hpp"
#include "schedule/tiling.hpp"
#include "schedule/trace.hpp"

namespace soap {
namespace {

Program gemm() {
  return frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
}

TEST(Trace, NaturalOrderLengthAndFootprint) {
  schedule::TraceBuilder b;
  b.append_natural(gemm().statements[0], {{"N", 4}});
  // 4 accesses per iteration (C read, A, B, C write), 64 iterations.
  EXPECT_EQ(b.trace().size(), 256u);
  EXPECT_EQ(b.distinct_addresses(), 48u);  // 3 arrays x 16
}

TEST(Trace, TiledCoversSameIterations) {
  schedule::TraceBuilder natural, tiled;
  natural.append_natural(gemm().statements[0], {{"N", 6}});
  tiled.append_tiled(gemm().statements[0], {{"N", 6}},
                     {{"i", 2}, {"j", 3}, {"k", 4}});
  EXPECT_EQ(natural.trace().size(), tiled.trace().size());
  EXPECT_EQ(natural.distinct_addresses(), tiled.distinct_addresses());
}

TEST(Trace, TiledTriangularDomainExact) {
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(i):
    x[i] += L[i,j] * y[j]
)");
  schedule::TraceBuilder natural, tiled;
  natural.append_natural(p.statements[0], {{"N", 9}});
  tiled.append_tiled(p.statements[0], {{"N", 9}}, {{"i", 4}, {"j", 3}});
  EXPECT_EQ(natural.trace().size(), tiled.trace().size());
}

TEST(CacheSim, ColdMissesOnly) {
  // Sequential scan fits: one miss per address, no write-backs of clean data.
  std::vector<schedule::Access> trace;
  for (std::uint64_t a = 0; a < 10; ++a) trace.push_back({a, false});
  auto r = cachesim::simulate_lru(trace, 16);
  EXPECT_EQ(r.loads, 10);
  EXPECT_EQ(r.stores, 0);
}

TEST(CacheSim, DirtyEvictionWritesBack) {
  std::vector<schedule::Access> trace;
  for (std::uint64_t a = 0; a < 4; ++a) trace.push_back({a, true});
  auto r = cachesim::simulate_lru(trace, 2);
  // Write-allocate without load; 2 evicted dirty + 2 flushed at the end.
  EXPECT_EQ(r.loads, 0);
  EXPECT_EQ(r.stores, 4);
}

TEST(CacheSim, LruThrashesOnCyclicPattern) {
  // Classic LRU pathology: cycling through S+1 addresses misses every time;
  // Belady keeps S-1 of them resident.
  std::vector<schedule::Access> trace;
  const std::uint64_t k = 5;  // S = 4
  for (int rep = 0; rep < 10; ++rep) {
    for (std::uint64_t a = 0; a < k; ++a) trace.push_back({a, false});
  }
  auto lru = cachesim::simulate_lru(trace, 4);
  auto belady = cachesim::simulate_belady(trace, 4);
  EXPECT_EQ(lru.loads, 50);       // every access misses
  EXPECT_LT(belady.loads, 25);    // offline-optimal reuses
}

TEST(CacheSim, BeladyNeverWorseThanLru) {
  Program p = gemm();
  for (std::size_t s : {16, 64, 256}) {
    auto m = cachesim::measure_statement(p.statements[0], {{"N", 12}}, {}, s);
    EXPECT_LE(m.belady.io(), m.lru.io()) << "S=" << s;
  }
}

TEST(Tiling, ConcreteTilesFromBound) {
  Program p = gemm();
  auto b = bounds::single_statement_bound(p.statements[0]);
  ASSERT_TRUE(b);
  auto tiles = schedule::concrete_tiles(p.statements[0], *b, 768,
                                        {{"N", 1024}});
  // sqrt(S/3) = 16 for S = 768.
  for (const char* v : {"i", "j", "k"}) {
    EXPECT_NEAR(static_cast<double>(tiles.at(v)), 16.0, 1.0) << v;
  }
  // Clamped by the extent for tiny problems.
  auto small = schedule::concrete_tiles(p.statements[0], *b, 1 << 20,
                                        {{"N", 8}});
  EXPECT_EQ(small.at("i"), 8);
}

TEST(Tiling, OptimalTilesBeatUntiledAndApproachBound) {
  // The headline demonstration: the derived tiling's simulated I/O is far
  // below the untiled order and within a small factor of the lower bound.
  Program p = gemm();
  auto b = bounds::single_statement_bound(p.statements[0]);
  ASSERT_TRUE(b);
  const long long n = 48;
  const std::size_t S = 768;  // tiles = sqrt(S/3) = 16
  auto tiles =
      schedule::concrete_tiles(p.statements[0], *b, static_cast<long long>(S),
                               {{"N", n}});
  auto untiled =
      cachesim::measure_statement(p.statements[0], {{"N", n}}, {}, S);
  auto tiled =
      cachesim::measure_statement(p.statements[0], {{"N", n}}, tiles, S);
  double lower = b->Q.eval({{"N", static_cast<double>(n)},
                            {"S", static_cast<double>(S)}});
  EXPECT_LT(tiled.lru.io(), untiled.lru.io() / 3);
  EXPECT_GE(tiled.belady.io() + 1e-9, lower);     // soundness
  EXPECT_LE(tiled.belady.io(), 4.0 * lower);      // tightness (small factor)
}

TEST(Codegen, EmitsTiledLoops) {
  Program p = gemm();
  std::string untiled = schedule::emit_c(p.statements[0]);
  EXPECT_NE(untiled.find("for (int i = 0; i < N; ++i)"), std::string::npos);
  std::string tiled = schedule::emit_tiled_c(p.statements[0],
                                             {{"i", 16}, {"j", 16}, {"k", 16}});
  EXPECT_NE(tiled.find("it += 16"), std::string::npos);
  EXPECT_NE(tiled.find("min(N, it + 16)"), std::string::npos);
}

class TilingSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TilingSweep, TiledLruWithinConstantOfLowerBound) {
  std::size_t S = GetParam();
  Program p = gemm();
  auto b = bounds::single_statement_bound(p.statements[0]);
  ASSERT_TRUE(b);
  const long long n = 36;
  auto tiles = schedule::concrete_tiles(
      p.statements[0], *b, static_cast<long long>(S), {{"N", n}});
  auto tiled = cachesim::measure_statement(p.statements[0], {{"N", n}}, tiles,
                                           S);
  double lower = b->Q.eval({{"N", static_cast<double>(n)},
                            {"S", static_cast<double>(S)}});
  EXPECT_GE(tiled.belady.io() + 1e-9, lower) << "S=" << S;
  EXPECT_LE(tiled.lru.io(), 8.0 * lower) << "S=" << S;
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, TilingSweep,
                         ::testing::Values(48, 108, 192, 300));

// --- Differential oracles --------------------------------------------------
//
// Reference copies of the straightforward trace generator and simulators
// that the compiled TraceBuilder and the dense-table simulators replaced:
// a (array name, index vector) -> address map, subscripts evaluated exactly
// through Affine::eval over a Rational environment, and list/hash-map caches.
// The production code must reproduce them access for access.

namespace oracle {

class TraceBuilder {
 public:
  void append_natural(const Statement& st,
                      const std::map<std::string, long long>& params) {
    SymMap<Rational> env;
    for (const auto& [k, v] : params) env.set(intern_symbol(k), Rational(v));
    std::vector<SymId> loop_ids;
    for (const Loop& loop : st.domain.loops()) {
      loop_ids.push_back(intern_symbol(loop.var));
    }
    std::function<void(std::size_t)> nest = [&](std::size_t depth) {
      if (depth == st.domain.loops().size()) {
        execute(st, env);
        return;
      }
      const Loop& loop = st.domain.loops()[depth];
      long long lo = static_cast<long long>(loop.lower.eval(env).floor());
      long long hi = static_cast<long long>(loop.upper.eval(env).floor());
      for (long long v = lo; v < hi; ++v) {
        env[loop_ids[depth]] = Rational(v);
        nest(depth + 1);
      }
      env.erase(loop_ids[depth]);
    };
    nest(0);
  }

  void append_tiled(const Statement& st,
                    const std::map<std::string, long long>& params,
                    const std::map<std::string, long long>& tiles) {
    SymMap<Rational> env;
    for (const auto& [k, v] : params) env.set(intern_symbol(k), Rational(v));
    const auto& loops = st.domain.loops();
    const std::size_t depth = loops.size();
    std::vector<SymId> loop_ids;
    for (const Loop& loop : loops) loop_ids.push_back(intern_symbol(loop.var));
    std::vector<long long> tile_size(depth, 1);
    for (std::size_t i = 0; i < depth; ++i) {
      auto it = tiles.find(loops[i].var);
      tile_size[i] =
          it == tiles.end() ? 1 : std::max<long long>(1, it->second);
    }
    std::vector<long long> origin(depth, 0);
    std::function<void(std::size_t)> point_nest = [&](std::size_t d) {
      if (d == depth) {
        execute(st, env);
        return;
      }
      long long lo = static_cast<long long>(loops[d].lower.eval(env).floor());
      long long hi = static_cast<long long>(loops[d].upper.eval(env).floor());
      long long from = std::max(lo, origin[d]);
      long long to = std::min(hi, origin[d] + tile_size[d]);
      for (long long v = from; v < to; ++v) {
        env[loop_ids[d]] = Rational(v);
        point_nest(d + 1);
      }
      env.erase(loop_ids[d]);
    };
    std::function<void(std::size_t)> tile_nest = [&](std::size_t d) {
      if (d == depth) {
        point_nest(0);
        return;
      }
      SymMap<Rational> hull = env;
      for (std::size_t i = 0; i < d; ++i) {
        hull[loop_ids[i]] = Rational(origin[i] + tile_size[i] - 1);
      }
      for (std::size_t i = d; i < depth; ++i) {
        if (!hull.contains(loop_ids[i])) hull[loop_ids[i]] = Rational(0);
      }
      long long lo = static_cast<long long>(loops[d].lower.eval(hull).floor());
      long long hi = static_cast<long long>(loops[d].upper.eval(hull).floor());
      lo = std::min<long long>(lo, 0);
      for (long long o = lo; o < hi; o += tile_size[d]) {
        origin[d] = o;
        tile_nest(d + 1);
      }
    };
    tile_nest(0);
  }

  [[nodiscard]] const std::vector<schedule::Access>& trace() const {
    return trace_;
  }
  [[nodiscard]] std::size_t distinct_addresses() const {
    return address_of_.size();
  }

 private:
  std::uint64_t address(const std::string& array,
                        const std::vector<long long>& idx) {
    auto [it, inserted] = address_of_.try_emplace(
        {array, idx}, static_cast<std::uint64_t>(address_of_.size()));
    return it->second;
  }

  void execute(const Statement& st, const SymMap<Rational>& env) {
    auto eval_component = [&](const AccessComponent& comp) {
      std::vector<long long> idx;
      for (const Affine& a : comp.index) {
        idx.push_back(static_cast<long long>(a.eval(env).floor()));
      }
      return idx;
    };
    for (const ArrayAccess& in : st.inputs) {
      for (const AccessComponent& comp : in.components) {
        trace_.push_back({address(in.array, eval_component(comp)), false});
      }
    }
    trace_.push_back(
        {address(st.output.array, eval_component(st.output.components[0])),
         true});
  }

  std::map<std::pair<std::string, std::vector<long long>>, std::uint64_t>
      address_of_;
  std::vector<schedule::Access> trace_;
};

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

cachesim::SimResult simulate_lru(const std::vector<schedule::Access>& trace,
                                 std::size_t S) {
  S = std::max<std::size_t>(S, 1);
  cachesim::SimResult r;
  std::list<std::uint64_t> order;
  struct Line {
    std::list<std::uint64_t>::iterator pos;
    bool dirty;
  };
  std::unordered_map<std::uint64_t, Line> lines;
  for (const schedule::Access& a : trace) {
    auto it = lines.find(a.address);
    if (it != lines.end()) {
      order.erase(it->second.pos);
      order.push_front(a.address);
      it->second.pos = order.begin();
      it->second.dirty |= a.write;
      continue;
    }
    if (!a.write) ++r.loads;
    if (lines.size() >= S) {
      std::uint64_t victim = order.back();
      order.pop_back();
      auto vit = lines.find(victim);
      if (vit->second.dirty) ++r.stores;
      lines.erase(vit);
    }
    order.push_front(a.address);
    lines[a.address] = {order.begin(), a.write};
  }
  for (const auto& [addr, line] : lines) {
    if (line.dirty) ++r.stores;
  }
  return r;
}

// Belady with a lazily validated max-heap of (next use, address): stale
// entries are re-pushed with the line's actual next use when popped.
cachesim::SimResult simulate_belady(
    const std::vector<schedule::Access>& trace, std::size_t S) {
  S = std::max<std::size_t>(S, 1);
  cachesim::SimResult r;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> uses;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    uses[trace[i].address].push_back(i);
  }
  std::unordered_map<std::uint64_t, std::size_t> use_idx;
  auto next_use = [&](std::uint64_t addr, std::size_t now) {
    auto& positions = uses[addr];
    std::size_t& idx = use_idx[addr];
    while (idx < positions.size() && positions[idx] <= now) ++idx;
    return idx < positions.size() ? positions[idx] : kNever;
  };
  struct Line {
    bool present = false;
    bool dirty = false;
  };
  std::unordered_map<std::uint64_t, Line> lines;
  std::priority_queue<std::pair<std::size_t, std::uint64_t>> pq;
  std::size_t cached = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const schedule::Access& a = trace[i];
    Line& line = lines[a.address];
    std::size_t nu = next_use(a.address, i);
    if (line.present) {
      line.dirty |= a.write;
      pq.push({nu, a.address});
      continue;
    }
    if (!a.write) ++r.loads;
    if (cached >= S) {
      while (true) {
        auto [when, victim] = pq.top();
        pq.pop();
        auto vit = lines.find(victim);
        if (vit == lines.end() || !vit->second.present) continue;
        std::size_t actual = next_use(victim, i - 1);
        if (actual != when) {
          pq.push({actual, victim});
          continue;
        }
        if (vit->second.dirty) ++r.stores;
        vit->second.present = false;
        vit->second.dirty = false;
        --cached;
        break;
      }
    }
    line.present = true;
    line.dirty = a.write;
    ++cached;
    pq.push({nu, a.address});
  }
  for (const auto& [addr, line] : lines) {
    if (line.present && line.dirty) ++r.stores;
  }
  return r;
}

}  // namespace oracle

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

void expect_same_trace(const oracle::TraceBuilder& want,
                       const schedule::TraceBuilder& got,
                       const std::string& what) {
  ASSERT_EQ(want.trace().size(), got.trace().size()) << what;
  EXPECT_EQ(want.distinct_addresses(), got.distinct_addresses()) << what;
  for (std::size_t i = 0; i < want.trace().size(); ++i) {
    const schedule::Access& w = want.trace()[i];
    const schedule::Access& g = got.trace()[i];
    ASSERT_TRUE(w.address == g.address && w.write == g.write)
        << what << ": access " << i << " is (" << g.address << ", "
        << g.write << "), want (" << w.address << ", " << w.write << ")";
  }
}

void expect_same_sim(const std::vector<schedule::Access>& trace,
                     std::size_t S, const std::string& what) {
  const cachesim::SimResult lru = cachesim::simulate_lru(trace, S);
  const cachesim::SimResult lru_want = oracle::simulate_lru(trace, S);
  EXPECT_EQ(lru.loads, lru_want.loads) << what << " LRU S=" << S;
  EXPECT_EQ(lru.stores, lru_want.stores) << what << " LRU S=" << S;
  const cachesim::SimResult opt = cachesim::simulate_belady(trace, S);
  const cachesim::SimResult opt_want = oracle::simulate_belady(trace, S);
  EXPECT_EQ(opt.loads, opt_want.loads) << what << " Belady S=" << S;
  EXPECT_EQ(opt.stores, opt_want.stores) << what << " Belady S=" << S;
}

std::vector<std::string> registry_names() {
  if (kSanitized) {
    // Sanitizer builds replay ~10x slower: one single-statement and one
    // fused kernel per family, as in test_attainment.
    return {"gemm",  "cholesky", "gemver",   "lenet5",       "softmax",
            "lulesh", "attention", "spmv_csr", "stencil_sweep"};
  }
  std::vector<std::string> names;
  for (const kernels::KernelEntry& k :
       kernels::Registry::instance().kernels()) {
    names.push_back(k.name);
  }
  return names;
}

class TraceOracle : public ::testing::TestWithParam<std::string> {};

// Every registry kernel's statements at the attainment table's default
// sizes, natural and tiled at S = 96 and 384 (optimal tiles where a
// single-statement bound exists, else a fixed tile of 3 per loop), each
// configuration appended statement after statement into one builder so
// addresses are shared across appends.
TEST_P(TraceOracle, MatchesReferenceTraceAndSimulation) {
  const kernels::KernelEntry& entry =
      kernels::Registry::instance().at(GetParam());
  const Program program = entry.build();
  const auto params = analysis::default_params(entry, {});
  std::vector<std::optional<bounds::IoLowerBound>> statement_bounds;
  for (const Statement& st : program.statements) {
    statement_bounds.push_back(bounds::single_statement_bound(st));
  }

  oracle::TraceBuilder want;
  schedule::TraceBuilder got;
  for (const Statement& st : program.statements) {
    want.append_natural(st, params);
    got.append_natural(st, params);
  }
  expect_same_trace(want, got, entry.name + " natural");
  expect_same_sim(got.trace(), 96, entry.name + " natural");

  for (long long S : {96LL, 384LL}) {
    oracle::TraceBuilder want_tiled;
    schedule::TraceBuilder got_tiled;
    for (std::size_t s = 0; s < program.statements.size(); ++s) {
      const Statement& st = program.statements[s];
      std::map<std::string, long long> tiles;
      if (statement_bounds[s]) {
        tiles = schedule::concrete_tiles(st, *statement_bounds[s], S, params);
      } else {
        for (const Loop& loop : st.domain.loops()) tiles[loop.var] = 3;
      }
      want_tiled.append_tiled(st, params, tiles);
      got_tiled.append_tiled(st, params, tiles);
    }
    const std::string what = entry.name + " tiled S=" + std::to_string(S);
    expect_same_trace(want_tiled, got_tiled, what);
    expect_same_sim(got_tiled.trace(), static_cast<std::size_t>(S), what);
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, TraceOracle,
                         ::testing::ValuesIn(registry_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// Seeded random traces: a skewed reuse distribution over a small hot set
// plus one-shot addresses (so many resident lines share "never used again",
// exercising Belady's address tie-break), optionally spread over sparse
// 40-bit addresses so the simulators must compact them.
std::vector<schedule::Access> random_trace(std::mt19937_64& rng,
                                           std::size_t length, bool sparse) {
  const std::size_t hot = 1 + rng() % 40;
  std::vector<std::uint64_t> ids;
  std::uint64_t fresh = hot;
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint64_t kind = rng() % 4;
    ids.push_back(kind == 0 ? fresh++ : rng() % (kind == 1 ? 4 : hot));
  }
  std::vector<std::uint64_t> label(fresh);
  for (std::uint64_t id = 0; id < fresh; ++id) label[id] = id;
  if (sparse) {
    for (std::uint64_t& l : label) l = rng() % (std::uint64_t{1} << 40);
  } else {
    std::shuffle(label.begin(), label.end(), rng);
  }
  std::vector<schedule::Access> trace;
  for (std::uint64_t id : ids) trace.push_back({label[id], rng() % 3 == 0});
  return trace;
}

TEST(CacheSimOracle, RandomTracesMatchReference) {
  std::mt19937_64 rng(20261017);
  for (int round = 0; round < 300; ++round) {
    const bool sparse = round % 2 == 1;
    const auto trace = random_trace(rng, 1 + rng() % 400, sparse);
    for (std::size_t S : {1, 2, 7, 96}) {
      expect_same_sim(trace, S, "round " + std::to_string(round));
    }
  }
}

TEST(CacheSimOracle, NeverReusedTiesMatchReference) {
  // Every access is the last use of its address, so each eviction is a
  // pure kNever tie (broken by address).  Whichever line goes first, each
  // dirty line is written back exactly once.
  std::vector<schedule::Access> trace;
  for (std::uint64_t a : {5, 1, 9, 3, 7}) trace.push_back({a, true});
  EXPECT_EQ(cachesim::simulate_belady(trace, 2).stores, 5);
  expect_same_sim(trace, 2, "never ties");
  // The same pattern spread to sparse addresses near 2^40.
  for (schedule::Access& a : trace) a.address += std::uint64_t{1} << 40;
  expect_same_sim(trace, 2, "sparse never ties");
  EXPECT_EQ(cachesim::simulate_lru(trace, 2).stores, 5);
}

TEST(CacheSimOracle, EmptyTraceAndZeroCapacity) {
  EXPECT_EQ(cachesim::simulate_lru({}, 4).io(), 0);
  EXPECT_EQ(cachesim::simulate_belady({}, 4).io(), 0);
  std::vector<schedule::Access> trace = {{3, false}, {3, true}, {0, false}};
  expect_same_sim(trace, 0, "S=0");
}

// --- Edge semantics of the compiled trace ----------------------------------

Statement first_statement(const std::string& source) {
  return frontend::parse_program(source).statements[0];
}

TEST(TraceSemantics, UnboundVariableThrowsOutOfRange) {
  // `j` is neither a parameter nor a loop variable.
  const Statement st = first_statement(R"(
for i in range(N):
  x[i] = a[i + j]
)");
  schedule::TraceBuilder natural;
  EXPECT_THROW(natural.append_natural(st, {{"N", 4}}), std::out_of_range);
  schedule::TraceBuilder tiled;
  EXPECT_THROW(tiled.append_tiled(st, {{"N", 4}}, {{"i", 2}}),
               std::out_of_range);
  // A bound naming a missing parameter throws too.
  schedule::TraceBuilder bound;
  EXPECT_THROW(bound.append_natural(st, {{"M", 4}}), std::out_of_range);
  // An unevaluated form does not throw: an empty domain never reads `j`.
  schedule::TraceBuilder empty;
  EXPECT_NO_THROW(empty.append_natural(st, {{"N", 0}}));
  EXPECT_TRUE(empty.trace().empty());
}

TEST(TraceSemantics, BoundOnAnInnerLoopVariableThrowsOutOfRange) {
  // for i in range(j): for j in range(N) — the outer bound names a loop
  // variable that is not bound yet.
  Statement st = first_statement(R"(
for i in range(N):
  for j in range(N):
    x[i] = a[j]
)");
  std::vector<Loop> loops = st.domain.loops();
  loops[0].upper = Affine::variable("j");
  st.domain = Domain(loops);
  schedule::TraceBuilder natural;
  EXPECT_THROW(natural.append_natural(st, {{"N", 3}}), std::out_of_range);
  oracle::TraceBuilder want;
  EXPECT_THROW(want.append_natural(st, {{"N", 3}}), std::out_of_range);
}

TEST(TraceSemantics, OverflowingSubscriptFailsLoudly) {
  Statement st = first_statement(R"(
for i in range(N):
  x[i] = a[i]
)");
  // a[2^62 * i]: i = 2 already leaves 64 bits.
  st.inputs[0].components[0].index[0] =
      Rational(int128{1} << 62, 1) * Affine::variable("i");
  schedule::TraceBuilder natural;
  EXPECT_THROW(natural.append_natural(st, {{"N", 4}}), OverflowError);
  schedule::TraceBuilder tiled;
  EXPECT_THROW(tiled.append_tiled(st, {{"N", 4}}, {{"i", 4}}), OverflowError);
  // a[2^100 * N * i]: the folded constant alone leaves 128 bits.
  st.inputs[0].components[0].index[0] =
      Rational(int128{1} << 100, 1) * Affine::variable("N") +
      Affine::variable("i");
  schedule::TraceBuilder wide;
  EXPECT_THROW(wide.append_natural(st, {{"N", 1LL << 40}}),
               OverflowError);
}

TEST(TraceSemantics, RationalSubscriptsFloorExactly) {
  // a[i/2 - 3/2], b[(2i - 7)/3] and a loop bound range(-N/3, N/2): floors
  // below zero must round toward -infinity, exactly as Rational::floor.
  Statement st = first_statement(R"(
for i in range(N):
  x[i] = a[i] + b[i]
)");
  const Affine i = Affine::variable("i");
  const Affine n = Affine::variable("N");
  st.inputs[0].components[0].index[0] =
      Rational(1, 2) * i + Affine(Rational(-3, 2));
  st.inputs[1].components[0].index[0] =
      Rational(2, 3) * i + Affine(Rational(-7, 3));
  std::vector<Loop> loops = st.domain.loops();
  loops[0].lower = Rational(-1, 3) * n;
  loops[0].upper = Rational(1, 2) * n;
  st.domain = Domain(loops);
  for (long long N : {0LL, 1LL, 5LL, 11LL}) {
    oracle::TraceBuilder want;
    schedule::TraceBuilder got;
    want.append_natural(st, {{"N", N}});
    got.append_natural(st, {{"N", N}});
    expect_same_trace(want, got, "natural N=" + std::to_string(N));
    oracle::TraceBuilder want_tiled;
    schedule::TraceBuilder got_tiled;
    want_tiled.append_tiled(st, {{"N", N}}, {{"i", 3}});
    got_tiled.append_tiled(st, {{"N", N}}, {{"i", 3}});
    expect_same_trace(want_tiled, got_tiled, "tiled N=" + std::to_string(N));
  }
  // N = 5: i runs over [floor(-5/3), floor(5/2)) = [-2, 2).  The first
  // input's subscript floor(i/2 - 3/2) is -3, -2, -2, -1 and the second's
  // floor((2i - 7)/3) is -4, -3, -3, -2, so iterations i = -1 and i = 0
  // read the same two elements.
  schedule::TraceBuilder b;
  b.append_natural(st, {{"N", 5}});
  std::vector<std::uint64_t> addresses;
  for (const schedule::Access& a : b.trace()) addresses.push_back(a.address);
  EXPECT_EQ(addresses, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 3, 4, 6,
                                                   7, 8, 9}));
  EXPECT_EQ(b.distinct_addresses(), 10u);
}

TEST(TraceSemantics, ReusedBuilderSharesAddressesAcrossStatements) {
  const Program p = frontend::parse_program(R"(
for i in range(N):
  t[i] = a[i]
for i in range(N):
  y[i] = t[i] + a[i]
)");
  schedule::TraceBuilder b;
  b.append_natural(p.statements[0], {{"N", 3}});
  // First statement: a[0] t[0] a[1] t[1] a[2] t[2] -> ids 0..5.
  EXPECT_EQ(b.distinct_addresses(), 6u);
  const std::vector<schedule::Access> first = b.trace();
  b.append_natural(p.statements[1], {{"N", 3}});
  // The second statement reuses every a and t id and adds only y.
  EXPECT_EQ(b.distinct_addresses(), 9u);
  ASSERT_EQ(b.trace().size(), first.size() + 9);
  for (std::size_t i = 0; i < 3; ++i) {
    const schedule::Access* row = &b.trace()[first.size() + 3 * i];
    // Inputs in statement order (t, a or a, t as parsed) then the write.
    std::vector<std::uint64_t> read = {row[0].address, row[1].address};
    std::sort(read.begin(), read.end());
    EXPECT_EQ(read, (std::vector<std::uint64_t>{2 * i, 2 * i + 1}));
    EXPECT_EQ(row[2].address, 6 + i);
    EXPECT_TRUE(row[2].write);
  }
  oracle::TraceBuilder want;
  want.append_natural(p.statements[0], {{"N", 3}});
  want.append_natural(p.statements[1], {{"N", 3}});
  expect_same_trace(want, b, "two statements");
}

}  // namespace
}  // namespace soap
