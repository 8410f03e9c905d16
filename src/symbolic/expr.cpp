#include "symbolic/expr.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "support/cancel.hpp"

namespace soap::sym {

namespace {

int kind_rank(Kind k) { return static_cast<int>(k); }

int cmp_rational(const Rational& a, const Rational& b) {
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

std::size_t hash_mix(std::size_t h, std::size_t v) {
  // boost::hash_combine-style mixing.
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::size_t rational_hash(const Rational& r) {
  auto fold = [](int128 v) {
    auto u = static_cast<unsigned __int128>(v);
    return static_cast<std::size_t>(u) ^
           static_cast<std::size_t>(u >> 64);
  };
  return hash_mix(fold(r.num()), fold(r.den()));
}

/// Content hash of a node whose operands are already interned (their ids are
/// final).  Stored in Node::hash; this is what std::hash<Expr> returns.
std::size_t content_hash(const Node& n) {
  std::size_t h = hash_mix(0x517cc1b727220a95ULL,
                           static_cast<std::size_t>(n.kind));
  switch (n.kind) {
    case Kind::kConst:
      return hash_mix(h, rational_hash(n.value));
    case Kind::kSymbol:
      return hash_mix(h, static_cast<std::size_t>(n.sym.value));
    case Kind::kPow:
      h = hash_mix(h, static_cast<std::size_t>(n.operands[0].id()));
      return hash_mix(h, rational_hash(n.exponent));
    default:
      for (const Expr& o : n.operands) {
        h = hash_mix(h, static_cast<std::size_t>(o.id()));
      }
      return h;
  }
}

/// Structural equality of two nodes given interned (pointer-comparable)
/// operands.  This is the intern table's collision check.
bool content_equal(const Node& a, const Node& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kConst:
      return a.value == b.value;
    case Kind::kSymbol:
      return a.sym == b.sym;
    case Kind::kPow:
      return a.exponent == b.exponent &&
             &a.operands[0].node() == &b.operands[0].node();
    default: {
      if (a.operands.size() != b.operands.size()) return false;
      for (std::size_t i = 0; i < a.operands.size(); ++i) {
        if (&a.operands[i].node() != &b.operands[i].node()) return false;
      }
      return true;
    }
  }
}

/// The hash-consing table, sharded by the content hash: each shard owns a
/// reader/writer lock and its slice of the weak bucket map.  Read-mostly
/// lookups (re-interning an existing canonical form) take the shared lock;
/// only first-time insertions and evictions take the exclusive lock, so
/// concurrent make_* calls from different threads stop serializing on one
/// global mutex.
///
/// Entries are weak: a node is evicted by its deleter when the last Expr
/// referencing it dies, so each shard never grows beyond the live working
/// set.  Buckets are keyed by the content hash and hold (raw pointer,
/// weak_ptr) pairs; the raw pointer lets the deleter erase exactly its own
/// entry even if an equal-content node was re-interned while this one was
/// dying.
struct InternShard {
  std::shared_mutex mu;
  std::unordered_map<std::size_t,
                     std::vector<std::pair<const Node*,
                                           std::weak_ptr<const Node>>>>
      buckets;
};

constexpr std::size_t kShardBits = 6;
constexpr std::size_t kNumShards = 1u << kShardBits;  // 64

struct ExprInternTable {
  std::atomic<std::uint64_t> next_id{1};
  InternShard shards[kNumShards];
};

// Leaked on purpose: Exprs held in static storage (test fixtures, golden
// rows) may be destroyed after any static table would be, and their deleters
// must still find the table.  The pointer stays reachable, so LeakSanitizer
// does not flag it.
ExprInternTable& expr_table() {
  static auto* t = new ExprInternTable();
  return *t;
}

/// Shard selection uses the high hash bits; the per-shard bucket map
/// consumes the low bits, so the two layers of hashing stay independent.
InternShard& shard_for(std::size_t hash) {
  return expr_table().shards[hash >> (8 * sizeof(std::size_t) - kShardBits)];
}

/// Set by intern_node around the owning shared_ptr's construction, which
/// runs under the shard's exclusive lock.  If control-block allocation
/// throws, the shared_ptr constructor is required to invoke the deleter on
/// the brand-new node — a node that was never published to any bucket and
/// whose shard lock is still held by this thread.  The deleter detects that
/// exact node here and parks it (intern_node finishes the teardown outside
/// the lock) instead of deadlocking on the shard mutex or destroying
/// operands under it.
thread_local const Node* t_interning = nullptr;

struct NodeDeleter {
  void operator()(const Node* n) const {
    if (n == t_interning) {
      t_interning = nullptr;
      return;
    }
    const std::size_t hash = n->hash;  // survives the delete below
    InternShard& sh = shard_for(hash);
    {
      std::unique_lock<std::shared_mutex> lock(sh.mu);
      auto it = sh.buckets.find(hash);
      if (it != sh.buckets.end()) {
        auto& vec = it->second;
        for (auto vit = vec.begin(); vit != vec.end(); ++vit) {
          if (vit->first == n) {
            vec.erase(vit);
            break;
          }
        }
        if (vec.empty()) sh.buckets.erase(it);
      }
    }
    // Outside the lock: destroying operands may recursively run deleters
    // (each taking its own shard lock, never nested under ours).
    delete n;
  }
};

/// Fills the per-node symbol-set cache (sorted distinct SymIds + bloom mask)
/// from the node's own symbol / its operands' caches.
void fill_symbol_cache(Node* n) {
  if (n->kind == Kind::kSymbol) {
    n->symbol_ids = {n->sym};
    n->sym_mask = 1ULL << (n->sym.value & 63u);
    return;
  }
  if (n->operands.empty()) return;  // constants
  std::uint64_t size = 1;
  for (const Expr& o : n->operands) size += o.node().tree_size;
  n->tree_size = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(size, 0xffffffffu));
  if (n->operands.size() == 1) {
    const Node& o = n->operands[0].node();
    n->symbol_ids = o.symbol_ids;
    n->sym_mask = o.sym_mask;
    return;
  }
  support::SmallVec<SymId, 32> merged;  // inline: SOAP kernels stay tiny
  for (const Expr& o : n->operands) {
    for (SymId id : o.symbol_ids()) merged.push_back(id);
    n->sym_mask |= o.node().sym_mask;
  }
  std::sort(merged.begin(), merged.end());
  auto last = std::unique(merged.begin(), merged.end());
  n->symbol_ids.assign(merged.begin(), last);
}

/// Memoization pays for itself only when an expression actually shares
/// subtrees; below this (tree-node) size the per-call hash-map costs more
/// than the walk it saves, so the rewriters run unmemoized.
constexpr std::uint32_t kMemoThreshold = 64;

NodePtr intern_node(Node&& n) {
  n.hash = content_hash(n);
  InternShard& sh = shard_for(n.hash);
  // Wide composites are almost always freshly canonicalized intermediates
  // (each step of an incremental sum/product fold makes a new one), so the
  // read-locked probe would miss and the work would repeat under the
  // exclusive lock.  Skip straight to the exclusive probe-and-insert for
  // them; the read-mostly hit traffic — constants, symbols, powers, small
  // composites — keeps the concurrent shared-lock fast path.
  const bool likely_fresh = n.operands.size() > 4;
  if (!likely_fresh) {
    // Read-mostly fast path: re-interning an existing canonical form only
    // takes the shared lock.
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    auto it = sh.buckets.find(n.hash);
    if (it != sh.buckets.end()) {
      for (const auto& [raw, weak] : it->second) {
        if (content_equal(*raw, n)) {
          if (NodePtr sp = weak.lock()) return sp;
          // Expired: the equal node is mid-destruction; insert a fresh copy
          // below (its deleter erases by pointer, so the entries can't mix).
        }
      }
    }
  }
  // Probe missed: this node will (almost certainly) be interned, so build
  // its symbol cache now, outside any lock.  Hit-path interns — the common
  // case in steady-state analysis — never pay for it.
  fill_symbol_cache(&n);
  std::unique_lock<std::shared_mutex> lock(sh.mu);
  auto& vec = sh.buckets[n.hash];
  // Re-scan under the exclusive lock: another thread may have inserted the
  // same canonical form between the two lock scopes.
  for (const auto& [raw, weak] : vec) {
    if (content_equal(*raw, n)) {
      if (NodePtr sp = weak.lock()) return sp;
    }
  }
  n.id = expr_table().next_id.fetch_add(1, std::memory_order_relaxed);
  const Node* p = nullptr;
  try {
    // Reserving the bucket slot up front makes the publish step below
    // nofail: once the shared_ptr owns the node, nothing on this path can
    // throw while we still hold the lock its deleter would need.
    vec.reserve(vec.size() + 1);
    p = new Node(std::move(n));
  } catch (...) {
    if (vec.empty()) sh.buckets.erase(n.hash);
    throw;  // out of memory before the node existed; table unchanged
  }
  NodePtr sp;
  t_interning = p;
  try {
    // The custom deleter runs the eviction protocol above.
    sp = NodePtr(p, NodeDeleter{});
  } catch (...) {
    // Control-block allocation failed.  The shared_ptr constructor already
    // invoked the deleter, which parked the never-published node (see
    // t_interning above); finish its teardown outside the lock, where
    // operand destruction may recurse into other shards.
    t_interning = nullptr;
    if (vec.empty()) sh.buckets.erase(n.hash);
    lock.unlock();
    delete p;
    throw;
  }
  t_interning = nullptr;
  vec.emplace_back(p, std::weak_ptr<const Node>(sp));
  return sp;
}

NodePtr intern_const_slow(const Rational& r) {
  Node n;
  n.kind = Kind::kConst;
  n.value = r;
  return intern_node(std::move(n));
}

NodePtr intern_const(const Rational& r) {
  // The tiny integers dominate constant traffic (every operator- interns -1,
  // every division interns an exponent of -1's base, coefficients start at
  // 1/2); pinning them skips the whole table round-trip.  Function-local
  // statics keep exactly these four nodes alive for the process lifetime.
  if (r.is_integer()) {
    switch (static_cast<int>(r.num() == 0   ? 0
                             : r.num() == 1 ? 1
                             : r.num() == 2 ? 2
                             : r.num() == -1 ? 3
                                             : 4)) {
      case 0: {
        static const NodePtr n = intern_const_slow(Rational(0));
        return n;
      }
      case 1: {
        static const NodePtr n = intern_const_slow(Rational(1));
        return n;
      }
      case 2: {
        static const NodePtr n = intern_const_slow(Rational(2));
        return n;
      }
      case 3: {
        static const NodePtr n = intern_const_slow(Rational(-1));
        return n;
      }
      default:
        break;
    }
  }
  return intern_const_slow(r);
}

NodePtr intern_sym(SymId id) {
  Node n;
  n.kind = Kind::kSymbol;
  n.sym = id;
  n.sym_name = &symbol_name(id);
  return intern_node(std::move(n));
}

NodePtr intern_composite(Kind kind, ExprVec operands,
                         const Rational& exponent = Rational(0)) {
  Node n;
  n.kind = kind;
  n.operands = std::move(operands);
  n.exponent = exponent;
  return intern_node(std::move(n));
}

/// Extracts from |v| the largest factor that is a perfect q-th power:
/// v = root^q * rest.  Trial division; constants arising in SOAP analysis
/// are small (offsets, statement counts).
void extract_qth_power(int128 v, long long q, int128* root, int128* rest) {
  *root = 1;
  *rest = 1;
  for (int128 p = 2; p * p <= v && p < 100000; ++p) {
    int mult = 0;
    while (v % p == 0) {
      v /= p;
      ++mult;
    }
    for (int i = 0; i < mult / q; ++i) *root = mul_checked(*root, p);
    for (int i = 0; i < mult % static_cast<int>(q); ++i)
      *rest = mul_checked(*rest, p);
  }
  *rest = mul_checked(*rest, v);
}

}  // namespace

namespace detail {
/// expr.cpp-internal privilege bridge: lets file-local helpers wrap interned
/// nodes into Exprs without widening the public constructor surface.
class ExprFactory {
 public:
  static Expr wrap(NodePtr n) { return Expr(std::move(n)); }
};
}  // namespace detail

Expr::Expr() {
  static const NodePtr zero = intern_const(Rational(0));
  node_ = zero;
}
Expr::Expr(long long v) : Expr(Rational(v)) {}
Expr::Expr(const Rational& r) : node_(intern_const(r)) {}

Expr Expr::symbol(const std::string& name) {
  return Expr(intern_sym(intern_symbol(name)));
}

Expr Expr::symbol(SymId id) { return Expr(intern_sym(id)); }

const Rational& Expr::value() const {
  if (!is_const()) throw std::logic_error("Expr::value on non-constant");
  return node_->value;
}

const std::string& Expr::name() const {
  if (kind() != Kind::kSymbol) throw std::logic_error("Expr::name on non-symbol");
  return *node_->sym_name;
}

SymId Expr::sym_id() const {
  if (kind() != Kind::kSymbol)
    throw std::logic_error("Expr::sym_id on non-symbol");
  return node_->sym;
}

int Expr::compare(const Expr& a, const Expr& b) {
  // Hash-consing: equality is pointer identity, so distinct nodes always
  // find a structural difference below; shared subtrees short-circuit here.
  if (a.node_ == b.node_) return 0;
  if (a.kind() != b.kind()) return kind_rank(a.kind()) - kind_rank(b.kind());
  switch (a.kind()) {
    case Kind::kConst:
      return cmp_rational(a.value(), b.value());
    case Kind::kSymbol:
      return a.name().compare(b.name());
    case Kind::kPow: {
      int c = compare(a.operands()[0], b.operands()[0]);
      if (c != 0) return c;
      return cmp_rational(a.exponent(), b.exponent());
    }
    default: {
      const auto oa = a.operands();
      const auto ob = b.operands();
      for (std::size_t i = 0; i < std::min(oa.size(), ob.size()); ++i) {
        int c = compare(oa[i], ob[i]);
        if (c != 0) return c;
      }
      return static_cast<int>(oa.size()) - static_cast<int>(ob.size());
    }
  }
}

namespace {

bool expr_less(const Expr& a, const Expr& b) {
  return Expr::compare(a, b) < 0;
}

}  // namespace

std::pair<Rational, Expr> split_coefficient(const Expr& term) {
  if (term.is_const()) return {term.value(), Expr(1)};
  if (term.kind() == Kind::kMul) {
    const auto ops = term.operands();
    if (!ops.empty() && ops[0].is_const()) {
      if (ops.size() == 2) return {ops[0].value(), ops[1]};
      // The factors of a canonical Mul are already canonical and sorted, so
      // the core can be interned directly instead of re-canonicalized
      // through make_mul — this runs for every term of every sum rebuild.
      ExprVec rest(ops.begin() + 1, ops.end());
      return {ops[0].value(),
              Expr(intern_composite(Kind::kMul, std::move(rest)))};
    }
  }
  return {Rational(1), term};
}

namespace {

/// coeff*core in canonical Mul layout without re-canonicalizing through
/// make_mul: cores produced by split_coefficient are const-free with sorted
/// factors, so prepending the constant reproduces make_mul's output exactly.
/// Requires coeff not in {0, 1} and core non-const.
Expr scale_core(const Rational& coeff, const Expr& core) {
  if (core.kind() == Kind::kMul) {
    ExprVec fs;
    fs.reserve(core.operands().size() + 1);
    fs.emplace_back(coeff);
    for (const Expr& f : core.operands()) fs.push_back(f);
    return detail::ExprFactory::wrap(
        intern_composite(Kind::kMul, std::move(fs)));
  }
  return detail::ExprFactory::wrap(
      intern_composite(Kind::kMul, {Expr(coeff), core}));
}

/// True when canonical summand `t` (non-Add, non-Const) has core `core`,
/// i.e. split_coefficient(t).second == core.  Pointer comparisons only.
bool term_has_core(const Expr& t, const Expr& core) {
  if (t == core) return true;  // coefficient 1
  if (t.kind() != Kind::kMul) return false;
  const auto ops = t.operands();
  if (!ops[0].is_const()) return false;
  if (core.kind() == Kind::kMul) {
    const auto cops = core.operands();
    if (ops.size() != cops.size() + 1) return false;
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (ops[i + 1] != cops[i]) return false;
    }
    return true;
  }
  return ops.size() == 2 && ops[1] == core;
}

/// Fast path for the hot incremental pattern (canonical sum) + (one term):
/// merges into the existing sorted operand list — pointer-equality like-term
/// search, one sorted insert — instead of rebuilding the like-term map over
/// all summands (which made repeated `sum = sum + term` quadratic in
/// allocations and hashing).
Expr add_one_term(const Expr& sum, const Expr& t) {
  const auto sops = sum.operands();
  ExprVec out(sops.begin(), sops.end());
  if (t.is_const()) {
    if (!t.value().is_zero()) {
      if (out[0].is_const()) {
        Rational c = out[0].value() + t.value();
        if (c.is_zero()) {
          out.erase(out.begin());
        } else {
          out[0] = Expr(c);
        }
      } else {
        out.insert(out.begin(), t);
      }
    }
  } else {
    auto [coeff, core] = split_coefficient(t);
    std::size_t like = out.size();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (term_has_core(out[i], core)) {
        like = i;
        break;
      }
    }
    if (like < out.size()) {
      Rational c = out[like] == core ? Rational(1)
                                     : out[like].operands()[0].value();
      c += coeff;
      out.erase(out.begin() + like);
      coeff = c;
    }
    if (!coeff.is_zero()) {
      Expr term = coeff.is_one() ? core : scale_core(coeff, core);
      out.insert(std::lower_bound(out.begin(), out.end(), term, expr_less),
                 term);
    }
  }
  if (out.empty()) return Expr(0);
  if (out.size() == 1) return out[0];
  return detail::ExprFactory::wrap(intern_composite(Kind::kAdd, std::move(out)));
}

}  // namespace

Expr make_add(ExprVec terms) {
  if (terms.size() == 2) {
    // operator+/operator- funnel here; merging one term into an existing
    // canonical sum is the analysis hot path (bound assembly, Faulhaber).
    if (terms[0].kind() == Kind::kAdd && terms[1].kind() != Kind::kAdd) {
      return add_one_term(terms[0], terms[1]);
    }
    if (terms[1].kind() == Kind::kAdd && terms[0].kind() != Kind::kAdd) {
      return add_one_term(terms[1], terms[0]);
    }
  }
  // Flatten, fold constants, combine like terms.  The like-term map is a
  // flat vector probed linearly with pointer equality: real sums have few
  // distinct cores, and the flat layout skips the per-entry heap nodes a
  // hash map would allocate on this hot path.
  Rational const_sum = 0;
  support::SmallVec<std::pair<Expr, Rational>, 8> by_core;
  auto accumulate = [&by_core](const Expr& core, const Rational& coeff) {
    for (auto& [c, acc] : by_core) {
      if (c == core) {
        acc += coeff;
        return;
      }
    }
    by_core.emplace_back(core, coeff);
  };
  ExprVec work = std::move(terms);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Expr t = work[i];  // by value: work may reallocate below
    if (t.kind() == Kind::kAdd) {
      for (const Expr& sub : t.operands()) work.push_back(sub);
      continue;
    }
    if (t.is_const()) {
      const_sum += t.value();
      continue;
    }
    auto [coeff, core] = split_coefficient(t);
    accumulate(core, coeff);
  }
  ExprVec out;
  if (!const_sum.is_zero()) out.emplace_back(const_sum);
  for (const auto& [core, coeff] : by_core) {
    if (coeff.is_zero()) continue;
    out.push_back(coeff.is_one() ? core : scale_core(coeff, core));
  }
  if (out.empty()) return Expr(0);
  if (out.size() == 1) return out[0];
  std::sort(out.begin(), out.end(), expr_less);
  return Expr(intern_composite(Kind::kAdd, std::move(out)));
}

Expr make_mul(ExprVec factors) {
  Rational const_prod = 1;
  // base -> accumulated exponent.  Flat like-factor map, linear pointer-
  // equality probes: products have a handful of distinct bases and the flat
  // layout avoids hash-map node allocations on this hot path.
  support::SmallVec<std::pair<Expr, Rational>, 8> by_base;
  auto accumulate = [&by_base](const Expr& base, const Rational& e) {
    for (auto& [b, acc] : by_base) {
      if (b == base) {
        acc += e;
        return;
      }
    }
    by_base.emplace_back(base, e);
  };
  ExprVec work = std::move(factors);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Expr f = work[i];  // by value: work may reallocate below
    if (f.kind() == Kind::kMul) {
      for (const Expr& sub : f.operands()) work.push_back(sub);
      continue;
    }
    if (f.is_const()) {
      const_prod *= f.value();
      continue;
    }
    if (f.kind() == Kind::kPow) {
      accumulate(f.operands()[0], f.exponent());
    } else {
      accumulate(f, Rational(1));
    }
  }
  if (const_prod.is_zero()) return Expr(0);
  // Combine constant radicals with equal fractional exponents:
  // sqrt(2)*sqrt(3) -> sqrt(6).  Group Const bases by exponent and multiply
  // the radicands.
  {
    std::map<Rational, Rational, decltype([](const Rational& a,
                                             const Rational& b) {
               return a < b;
             })>
        radicals;
    for (std::size_t i = 0; i < by_base.size();) {
      if (by_base[i].first.is_const() && !by_base[i].second.is_integer()) {
        Rational& acc = radicals.try_emplace(by_base[i].second, Rational(1))
                            .first->second;
        acc *= by_base[i].first.value();
        by_base.erase(by_base.begin() + i);
      } else {
        ++i;
      }
    }
    for (const auto& [e, radicand] : radicals) {
      accumulate(Expr(radicand), e);
    }
  }
  ExprVec out;
  for (const auto& [base, e] : by_base) {
    if (e.is_zero()) continue;
    Expr p = pow(base, e);  // may fold (e.g. const bases, nested pows)
    if (p.is_const()) {
      const_prod *= p.value();
    } else if (p.kind() == Kind::kMul) {
      // pow() of a constant can return c * radical; splice its factors in.
      for (const Expr& sub : p.operands()) {
        if (sub.is_const()) {
          const_prod *= sub.value();
        } else {
          out.push_back(sub);
        }
      }
    } else {
      out.push_back(p);
    }
  }
  if (out.empty()) return Expr(const_prod);
  std::sort(out.begin(), out.end(), expr_less);
  if (!const_prod.is_one()) {
    out.insert(out.begin(), Expr(const_prod));
  }
  if (out.size() == 1) return out[0];
  return Expr(intern_composite(Kind::kMul, std::move(out)));
}

Expr pow(const Expr& base, const Rational& e) {
  if (e.is_zero()) return Expr(1);
  if (e.is_one()) return base;
  if (base.is_one()) return Expr(1);
  if (base.is_zero()) {
    if (e.is_negative()) throw std::domain_error("pow: 0^negative");
    return Expr(0);
  }
  if (base.is_const()) {
    const Rational& v = base.value();
    if (e.is_integer()) return Expr(v.pow(e.to_int()));
    // v^(p/q): fold the integer power, then pull out perfect q-th roots.
    long long p = static_cast<long long>(e.num());
    long long q = static_cast<long long>(e.den());
    if (v.is_negative()) throw std::domain_error("pow: fractional power of negative constant");
    Rational c = v.pow(p);
    Rational exact;
    if (c.nth_root(q, &exact)) return Expr(exact);
    // Rationalize the denominator: (a/b)^(1/q) = (a * b^(q-1))^(1/q) / b,
    // so the radicand is an integer and sqrt(3/2) renders as sqrt(6)/2.
    int128 radicand =
        mul_checked(c.num(), Rational(c.den(), 1).pow(q - 1).num());
    int128 rn, sn;
    extract_qth_power(radicand, q, &rn, &sn);
    Rational outer = Rational(rn, c.den());
    Rational rest(sn, 1);
    Expr radical(intern_composite(Kind::kPow, {Expr(rest)}, Rational(1, q)));
    if (outer.is_one()) return radical;
    return make_mul({Expr(outer), radical});
  }
  if (base.kind() == Kind::kPow) {
    return pow(base.operands()[0], base.exponent() * e);
  }
  if (base.kind() == Kind::kMul) {
    ExprVec factors;
    factors.reserve(base.operands().size());
    for (const Expr& f : base.operands()) factors.push_back(pow(f, e));
    return make_mul(std::move(factors));
  }
  return Expr(intern_composite(Kind::kPow, {base}, e));
}

namespace {

/// Shared flatten/fold/dedup for min and max: returns the canonical operand
/// list.  `pick` keeps the winning constant.  Deduplication is sort + unique:
/// with hash-consing, equal operands are the same node, so compare()==0 iff
/// pointer-equal.
template <class PickConst>
ExprVec fold_minmax(Kind kind, ExprVec args, PickConst pick) {
  ExprVec out;
  bool have_const = false;
  Rational best = 0;
  ExprVec work = std::move(args);
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Expr a = work[i];  // by value: work may reallocate below
    if (a.kind() == kind) {
      for (const Expr& sub : a.operands()) work.push_back(sub);
      continue;
    }
    if (a.is_const()) {
      if (!have_const || pick(a.value(), best)) best = a.value();
      have_const = true;
    } else {
      out.push_back(a);
    }
  }
  if (have_const) out.emplace_back(best);
  std::sort(out.begin(), out.end(), expr_less);
  auto last = std::unique(out.begin(), out.end());
  while (out.end() != last) out.pop_back();
  return out;
}

}  // namespace

Expr min(ExprVec args) {
  if (args.empty()) throw std::invalid_argument("min: no arguments");
  ExprVec out = fold_minmax(
      Kind::kMin, std::move(args),
      [](const Rational& a, const Rational& b) { return a < b; });
  if (out.size() == 1) return out[0];
  return Expr(intern_composite(Kind::kMin, std::move(out)));
}

Expr max(ExprVec args) {
  if (args.empty()) throw std::invalid_argument("max: no arguments");
  ExprVec out = fold_minmax(
      Kind::kMax, std::move(args),
      [](const Rational& a, const Rational& b) { return a > b; });
  if (out.size() == 1) return out[0];
  return Expr(intern_composite(Kind::kMax, std::move(out)));
}

Expr operator+(const Expr& a, const Expr& b) { return make_add({a, b}); }
Expr operator-(const Expr& a, const Expr& b) {
  return make_add({a, make_mul({Expr(-1), b})});
}
Expr operator-(const Expr& a) { return make_mul({Expr(-1), a}); }
Expr operator*(const Expr& a, const Expr& b) { return make_mul({a, b}); }
Expr operator/(const Expr& a, const Expr& b) {
  return make_mul({a, pow(b, Rational(-1))});
}

namespace {

double eval_impl(const Expr& e, const SymMap<double>& env,
                 std::unordered_map<const Node*, double>* memo) {
  switch (e.kind()) {
    case Kind::kConst:
      return e.value().to_double();
    case Kind::kSymbol: {
      const double* v = env.find(e.sym_id());
      if (v == nullptr)
        throw std::out_of_range("Expr::eval: unbound symbol " + e.name());
      return *v;
    }
    default:
      break;
  }
  if (memo != nullptr) {
    auto it = memo->find(&e.node());
    if (it != memo->end()) return it->second;
  }
  double result = 0;
  switch (e.kind()) {
    case Kind::kAdd: {
      double s = 0;
      for (const Expr& t : e.operands()) s += eval_impl(t, env, memo);
      result = s;
      break;
    }
    case Kind::kMul: {
      double p = 1;
      for (const Expr& f : e.operands()) p *= eval_impl(f, env, memo);
      result = p;
      break;
    }
    case Kind::kPow:
      result = std::pow(eval_impl(e.operands()[0], env, memo),
                        e.exponent().to_double());
      break;
    case Kind::kMin: {
      double m = eval_impl(e.operands()[0], env, memo);
      for (std::size_t i = 1; i < e.operands().size(); ++i)
        m = std::min(m, eval_impl(e.operands()[i], env, memo));
      result = m;
      break;
    }
    case Kind::kMax: {
      double m = eval_impl(e.operands()[0], env, memo);
      for (std::size_t i = 1; i < e.operands().size(); ++i)
        m = std::max(m, eval_impl(e.operands()[i], env, memo));
      result = m;
      break;
    }
    default:
      throw std::logic_error("Expr::eval: bad kind");
  }
  if (memo != nullptr) memo->emplace(&e.node(), result);
  return result;
}

}  // namespace

double Expr::eval(const SymMap<double>& env) const {
  if (node_->tree_size < kMemoThreshold) return eval_impl(*this, env, nullptr);
  std::unordered_map<const Node*, double> memo;
  return eval_impl(*this, env, &memo);
}

double Expr::eval(const std::map<std::string, double>& env) const {
  SymMap<double> ids;
  for (const auto& [name, v] : env) ids.set(intern_symbol(name), v);
  return eval(ids);
}

namespace {

/// True when the node's cached symbol set intersects the env's key set
/// (bloom mask first, then a two-pointer merge over the sorted vectors).
bool mentions_any(const Node& n, const SymMap<Expr>& env,
                  std::uint64_t env_mask) {
  if ((n.sym_mask & env_mask) == 0) return false;
  auto it = env.begin();
  for (SymId id : n.symbol_ids) {
    while (it != env.end() && it->first < id) ++it;
    if (it == env.end()) return false;
    if (it->first == id) return true;
  }
  return false;
}

Expr subs_impl(const Expr& e, const SymMap<Expr>& env, std::uint64_t env_mask,
               std::unordered_map<const Node*, Expr>* memo) {
  if (!mentions_any(e.node(), env, env_mask)) return e;
  if (e.kind() == Kind::kSymbol) {
    const Expr* r = env.find(e.sym_id());
    return r == nullptr ? e : *r;
  }
  if (memo != nullptr) {
    auto it = memo->find(&e.node());
    if (it != memo->end()) return it->second;
  }
  Expr result;
  switch (e.kind()) {
    case Kind::kAdd: {
      ExprVec ts;
      ts.reserve(e.operands().size());
      for (const Expr& t : e.operands())
        ts.push_back(subs_impl(t, env, env_mask, memo));
      result = make_add(std::move(ts));
      break;
    }
    case Kind::kMul: {
      ExprVec fs;
      fs.reserve(e.operands().size());
      for (const Expr& f : e.operands())
        fs.push_back(subs_impl(f, env, env_mask, memo));
      result = make_mul(std::move(fs));
      break;
    }
    case Kind::kPow:
      result = pow(subs_impl(e.operands()[0], env, env_mask, memo),
                   e.exponent());
      break;
    case Kind::kMin: {
      ExprVec as;
      as.reserve(e.operands().size());
      for (const Expr& a : e.operands())
        as.push_back(subs_impl(a, env, env_mask, memo));
      result = min(std::move(as));
      break;
    }
    case Kind::kMax: {
      ExprVec as;
      as.reserve(e.operands().size());
      for (const Expr& a : e.operands())
        as.push_back(subs_impl(a, env, env_mask, memo));
      result = max(std::move(as));
      break;
    }
    default:
      throw std::logic_error("Expr::subs: bad kind");
  }
  if (memo != nullptr) memo->emplace(&e.node(), result);
  return result;
}

}  // namespace

Expr Expr::subs(const SymMap<Expr>& env) const {
  std::uint64_t env_mask = 0;
  for (const auto& kv : env) env_mask |= 1ULL << (kv.first.value & 63u);
  if (node_->tree_size < kMemoThreshold) {
    return subs_impl(*this, env, env_mask, nullptr);
  }
  std::unordered_map<const Node*, Expr> memo;
  return subs_impl(*this, env, env_mask, &memo);
}

Expr Expr::subs(const std::map<std::string, Expr>& env) const {
  SymMap<Expr> ids;
  for (const auto& [name, e] : env) ids.set(intern_symbol(name), e);
  return subs(ids);
}

namespace {

Expr diff_impl(const Expr& e, SymId var,
               std::unordered_map<const Node*, Expr>* memo) {
  // Cached symbol sets: subtrees free of `var` differentiate to 0 in O(1).
  if (!e.contains(var)) return Expr(0);
  switch (e.kind()) {
    case Kind::kSymbol:
      return Expr(1);  // contains(var) held, so this is var itself
    default:
      break;
  }
  if (memo != nullptr) {
    auto it = memo->find(&e.node());
    if (it != memo->end()) return it->second;
  }
  Expr result;
  switch (e.kind()) {
    case Kind::kAdd: {
      ExprVec ts;
      for (const Expr& t : e.operands()) ts.push_back(diff_impl(t, var, memo));
      result = make_add(std::move(ts));
      break;
    }
    case Kind::kMul: {
      // Product rule: sum_i f_i' * prod_{j != i} f_j.
      ExprVec terms;
      const auto ops = e.operands();
      for (std::size_t i = 0; i < ops.size(); ++i) {
        Expr d = diff_impl(ops[i], var, memo);
        if (d.is_zero()) continue;
        ExprVec fs = {d};
        for (std::size_t j = 0; j < ops.size(); ++j)
          if (j != i) fs.push_back(ops[j]);
        terms.push_back(make_mul(std::move(fs)));
      }
      result = make_add(std::move(terms));
      break;
    }
    case Kind::kPow: {
      const Expr& b = e.operands()[0];
      Expr d = diff_impl(b, var, memo);
      result = make_mul(
          {Expr(e.exponent()), pow(b, e.exponent() - Rational(1)), d});
      break;
    }
    case Kind::kMin:
    case Kind::kMax:
      throw std::domain_error("Expr::diff: min/max not differentiable");
    default:
      throw std::logic_error("Expr::diff: bad kind");
  }
  if (memo != nullptr) memo->emplace(&e.node(), result);
  return result;
}

}  // namespace

Expr Expr::diff(SymId var) const {
  if (node_->tree_size < kMemoThreshold) {
    return diff_impl(*this, var, nullptr);
  }
  std::unordered_map<const Node*, Expr> memo;
  return diff_impl(*this, var, &memo);
}

Expr Expr::diff(const std::string& var) const {
  return diff(intern_symbol(var));
}

std::vector<std::string> Expr::symbols() const {
  std::vector<std::string> out;
  out.reserve(node_->symbol_ids.size());
  for (SymId id : node_->symbol_ids) out.push_back(symbol_name(id));
  std::sort(out.begin(), out.end());
  return out;
}

bool Expr::contains(SymId var) const {
  const Node& n = *node_;
  if ((n.sym_mask & (1ULL << (var.value & 63u))) == 0) return false;
  return std::binary_search(n.symbol_ids.begin(), n.symbol_ids.end(), var);
}

bool Expr::contains(const std::string& var) const {
  return contains(intern_symbol(var));
}

namespace {

/// Cross-multiplies an accumulated addend list with the addends of one more
/// factor, term by term through make_mul.  Shared by the Mul and integer-Pow
/// branches of expand(): distributing through operator* instead would
/// re-canonicalize b*b into the very Pow being expanded and recurse forever,
/// which is why both call sites must use this one helper.
ExprVec distribute_terms(const ExprVec& acc, std::span<const Expr> addends) {
  ExprVec next;
  next.reserve(acc.size() * addends.size());
  for (const Expr& p : acc) {
    for (const Expr& t : addends) next.push_back(make_mul({p, t}));
  }
  return next;
}

std::span<const Expr> addends_of(const Expr& e, Expr* single) {
  if (e.kind() == Kind::kAdd) return e.operands();
  *single = e;
  return {single, 1};
}

Expr expand_impl(const Expr& e,
                 std::unordered_map<const Node*, Expr>* memo) {
  switch (e.kind()) {
    case Kind::kConst:
    case Kind::kSymbol:
      return e;
    default:
      break;
  }
  if (memo != nullptr) {
    auto it = memo->find(&e.node());
    if (it != memo->end()) return it->second;
  }
  Expr result;
  switch (e.kind()) {
    case Kind::kAdd: {
      ExprVec ts;
      ts.reserve(e.operands().size());
      for (const Expr& t : e.operands()) ts.push_back(expand_impl(t, memo));
      result = make_add(std::move(ts));
      break;
    }
    case Kind::kMul: {
      // Expand factors, then distribute over sums left to right.
      ExprVec partial = {Expr(1)};
      for (const Expr& f0 : e.operands()) {
        Expr f = expand_impl(f0, memo);
        Expr single;
        partial = distribute_terms(partial, addends_of(f, &single));
      }
      result = make_add(std::move(partial));
      break;
    }
    case Kind::kPow: {
      Expr b = expand_impl(e.operands()[0], memo);
      const Rational& ex = e.exponent();
      if (b.kind() == Kind::kAdd && ex.is_integer() && ex > Rational(1) &&
          ex <= Rational(8)) {
        const std::span<const Expr> bt = b.operands();
        ExprVec acc = {Expr(1)};
        for (long long i = 0; i < ex.to_int(); ++i) {
          acc = distribute_terms(acc, bt);
        }
        result = make_add(std::move(acc));
      } else {
        result = pow(b, ex);
      }
      break;
    }
    case Kind::kMin: {
      ExprVec as;
      as.reserve(e.operands().size());
      for (const Expr& a : e.operands()) as.push_back(expand_impl(a, memo));
      result = min(std::move(as));
      break;
    }
    case Kind::kMax: {
      ExprVec as;
      as.reserve(e.operands().size());
      for (const Expr& a : e.operands()) as.push_back(expand_impl(a, memo));
      result = max(std::move(as));
      break;
    }
    default:
      throw std::logic_error("expand: bad kind");
  }
  if (memo != nullptr) memo->emplace(&e.node(), result);
  return result;
}

}  // namespace

Expr expand(const Expr& e) {
  if (e.node().tree_size < kMemoThreshold) return expand_impl(e, nullptr);
  std::unordered_map<const Node*, Expr> memo;
  return expand_impl(e, &memo);
}

namespace {

bool needs_parens_in_product(const Expr& e) { return e.kind() == Kind::kAdd; }

std::string render(const Expr& e);

std::string render_pow(const Expr& base, const Rational& ex) {
  std::string b = render(base);
  if (needs_parens_in_product(base) || base.kind() == Kind::kMul ||
      base.kind() == Kind::kPow) {
    b = "(" + b + ")";
  }
  if (ex.is_one()) return b;
  if (ex == Rational(1, 2)) return "sqrt(" + render(base) + ")";
  if (ex == Rational(1, 3)) return "cbrt(" + render(base) + ")";
  if (ex.is_integer()) return b + "^" + ex.str();
  return b + "^(" + ex.str() + ")";
}

std::string render(const Expr& e) {
  switch (e.kind()) {
    case Kind::kConst:
      return e.value().str();
    case Kind::kSymbol:
      return e.name();
    case Kind::kPow:
      if (e.exponent().is_negative()) {
        return "1/" + render_pow(e.operands()[0], -e.exponent());
      }
      return render_pow(e.operands()[0], e.exponent());
    case Kind::kMin:
    case Kind::kMax: {
      std::string out = e.kind() == Kind::kMin ? "min(" : "max(";
      for (std::size_t i = 0; i < e.operands().size(); ++i) {
        if (i) out += ", ";
        out += render(e.operands()[i]);
      }
      return out + ")";
    }
    case Kind::kMul: {
      // Split into numerator and denominator by exponent sign.
      std::vector<std::string> nums, dens;
      Rational coeff = 1;
      for (const Expr& f : e.operands()) {
        if (f.is_const()) {
          coeff = f.value();
          continue;
        }
        if (f.kind() == Kind::kPow && f.exponent().is_negative()) {
          dens.push_back(render_pow(f.operands()[0], -f.exponent()));
        } else {
          std::string s = render(f);
          if (needs_parens_in_product(f)) s = "(" + s + ")";
          nums.push_back(s);
        }
      }
      std::string num_str;
      bool neg = coeff.is_negative();
      Rational ac = coeff.abs();
      if (!Rational(ac.num()).is_one() || nums.empty()) {
        num_str = int128_str(ac.num() < 0 ? -ac.num() : ac.num());
      }
      for (const auto& s : nums) {
        if (!num_str.empty()) num_str += "*";
        num_str += s;
      }
      if (num_str.empty()) num_str = "1";
      if (!ac.is_integer()) dens.insert(dens.begin(), int128_str(ac.den()));
      std::string out = num_str;
      if (!dens.empty()) {
        std::string den_str;
        for (const auto& s : dens) {
          if (!den_str.empty()) den_str += "*";
          den_str += s;
        }
        if (dens.size() > 1) den_str = "(" + den_str + ")";
        out += "/" + den_str;
      }
      return neg ? "-" + out : out;
    }
    case Kind::kAdd: {
      std::string out;
      for (std::size_t i = 0; i < e.operands().size(); ++i) {
        std::string s = render(e.operands()[i]);
        if (i == 0) {
          out = s;
        } else if (!s.empty() && s[0] == '-') {
          out += " - " + s.substr(1);
        } else {
          out += " + " + s;
        }
      }
      return out;
    }
  }
  throw std::logic_error("render: bad kind");
}

}  // namespace

std::string Expr::str() const { return render(*this); }

std::ostream& operator<<(std::ostream& os, const Expr& e) {
  return os << e.str();
}

bool numerically_equal(const Expr& a, const Expr& b,
                       const NumericEqualityOptions& options) {
  // Union of the two cached symbol sets, ordered by *name* so the sample
  // assignments reproduce the historical string-based implementation bit for
  // bit (and stay stable across runs regardless of intern order).
  const auto a_ids = a.symbol_ids();
  const auto b_ids = b.symbol_ids();
  std::vector<SymId> ids(a_ids.begin(), a_ids.end());
  ids.insert(ids.end(), b_ids.begin(), b_ids.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::pair<std::string, SymId>> by_name;
  by_name.reserve(ids.size());
  for (SymId id : ids) by_name.emplace_back(symbol_name(id), id);
  std::sort(by_name.begin(), by_name.end());
  // Deterministic quasi-random positive sample points (xorshift64); a
  // (seed, trials) pair pins the exact run for reproduction.
  std::uint64_t state = options.seed;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return 1.5 + static_cast<double>(state % 1000) / 37.0;
  };
  SymMap<double> env;
  for (SymId id : ids) env.set(id, 0.0);
  for (int trial = 0; trial < options.trials; ++trial) {
    for (const auto& [name, id] : by_name) *env.find(id) = next();
    double va = a.eval(env);
    double vb = b.eval(env);
    double scale = std::max({1.0, std::fabs(va), std::fabs(vb)});
    if (std::fabs(va - vb) > options.tol * scale) return false;
  }
  return true;
}

bool numerically_equal(const Expr& a, const Expr& b, double tol) {
  NumericEqualityOptions options;
  options.tol = tol;
  return numerically_equal(a, b, options);
}

InternStats expr_intern_stats() {
  ExprInternTable& t = expr_table();
  InternStats stats;
  for (InternShard& sh : t.shards) {
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    for (const auto& [hash, vec] : sh.buckets) stats.live_nodes += vec.size();
  }
  stats.total_interned =
      t.next_id.load(std::memory_order_relaxed) - 1;
  return stats;
}

namespace {
// Wires support/cancel's node budget to the intern table's live count at
// static-init time (support cannot depend on symbolic, so the gauge flows
// the other way).  Any binary linking this layer gets the gauge; without it
// live_node_count() reads 0 and the budget never trips.
[[maybe_unused]] const bool g_node_gauge_registered = [] {
  support::register_live_node_gauge(
      +[]() -> std::size_t { return expr_intern_stats().live_nodes; });
  return true;
}();
}  // namespace

}  // namespace soap::sym
