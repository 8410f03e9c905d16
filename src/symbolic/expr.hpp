// A small computer-algebra system: immutable symbolic expressions with
// canonical simplification and hash-consing.
//
// This replaces the MATLAB Symbolic Toolbox used by the paper.  The expression
// language is exactly what SOAP analysis needs:
//
//   * rational constants (exact, via soap::Rational),
//   * positive symbols (array extents N, M, ..., fast memory size S,
//     partition parameter X, tile sizes D1..Dl),
//   * n-ary sums and products with like-term/likefactor combination,
//   * powers with *rational constant* exponents (sqrt(S) = S^(1/2),
//     cbrt(S) = S^(1/3), radical constants such as sqrt(3)),
//   * min / max (conditional bounds, Section 5.3 of the paper).
//
// Design notes:
//   * Every symbol is assumed to denote a *positive* quantity.  This is true
//     for all SOAP parameters and licenses simplifications such as
//     (x*y)^(1/2) == x^(1/2) * y^(1/2).
//   * Expressions are values wrapping shared immutable nodes; all rewriting
//     happens at construction time, so two structurally equal results of
//     different derivations compare equal (used heavily by the golden tests
//     against Table 2).
//   * Nodes are *hash-consed*: a sharded, thread-safe intern table (64
//     buckets of the cached node hash, each with its own reader/writer lock;
//     nodes and their shared_ptr control blocks come from the global
//     allocator — see expr.cpp and docs/ARCHITECTURE.md) guarantees that
//     structurally equal nodes are the same Node object.  operator== is
//     therefore pointer identity, hash() is an O(1) cached value, and every
//     node carries a cached set of the symbols occurring beneath it, so
//     contains()/symbols() never walk the tree.  Symbol names live in the
//     soap::SymId interner (support/interner.hpp).
//   * Operand lists are stored inline for the common small arities
//     (support::SmallVec, inline capacity 4) and exposed as read-only spans;
//     `make_add`/`make_mul` are the batch canonicalization entry points —
//     callers assembling a large sum/product should build one ExprVec and
//     canonicalize it in a single pass instead of folding with operator+.
//   * The recursive rewriters (subs, expand, diff, eval) memoize on node
//     identity per top-level call; heavily shared (DAG-shaped) expressions
//     are rewritten in time proportional to the number of *distinct* nodes.
//   * Thread-safety contract: constructing, copying, comparing, and rewriting
//     expressions is safe from multiple threads (the intern shards are
//     individually locked — concurrent make_* calls on different shards do
//     not contend at all; nodes are immutable after interning).  Individual
//     Expr values are not synchronized — don't mutate one Expr variable from
//     two threads.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/interner.hpp"
#include "support/rational.hpp"
#include "support/small_vec.hpp"
#include "support/sym_map.hpp"

namespace soap::sym {

enum class Kind : std::uint8_t { kConst, kSymbol, kAdd, kMul, kPow, kMin, kMax };

class Expr;
struct Node;
using NodePtr = std::shared_ptr<const Node>;

/// Operand/term list with inline storage for the common small arities.
/// This is the operand type of every composite node and the parameter type
/// of the batch canonicalizers (make_add, make_mul, min, max).
using ExprVec = support::SmallVec<Expr, 4>;

namespace detail {
class ExprFactory;  // expr.cpp-internal: wraps interned nodes into Exprs
}

/// Immutable symbolic expression (value semantics, structurally canonical,
/// hash-consed: equal canonical forms share one node).
class Expr {
 public:
  /// Default-constructs the constant 0.
  Expr();
  /// Implicit conversions from numbers for ergonomic arithmetic.
  Expr(long long v);            // NOLINT(implicit)
  Expr(int v) : Expr(static_cast<long long>(v)) {}  // NOLINT(implicit)
  Expr(const Rational& r);      // NOLINT(implicit)

  static Expr symbol(const std::string& name);
  static Expr symbol(SymId id);
  static Expr constant(const Rational& r) { return Expr(r); }

  [[nodiscard]] Kind kind() const;
  [[nodiscard]] bool is_const() const { return kind() == Kind::kConst; }
  [[nodiscard]] bool is_zero() const;
  [[nodiscard]] bool is_one() const;
  /// Requires is_const().
  [[nodiscard]] const Rational& value() const;
  /// Requires kind() == kSymbol.
  [[nodiscard]] const std::string& name() const;
  /// Requires kind() == kSymbol.
  [[nodiscard]] SymId sym_id() const;
  /// Operands of Add/Mul/Min/Max; {base} for Pow.  A read-only view into the
  /// node's inline operand storage — valid as long as any Expr referencing
  /// the node is alive; copy into an ExprVec to mutate.
  [[nodiscard]] std::span<const Expr> operands() const;
  /// Requires kind() == kPow.
  [[nodiscard]] const Rational& exponent() const;

  /// O(1): cached content hash of the canonical form.
  [[nodiscard]] std::size_t hash() const;
  /// O(1): global intern id.  A cheap total order (creation order) for
  /// containers whose iteration order never reaches user-visible output;
  /// rendering and canonical operand order use the structural compare().
  [[nodiscard]] std::uint64_t id() const;

  /// Total structural comparison (canonical display order).
  /// Returns <0, 0, >0; 0 iff same node (hash-consing).
  static int compare(const Expr& a, const Expr& b);
  /// O(1): hash-consing makes structural equality pointer identity.
  friend bool operator==(const Expr& a, const Expr& b) {
    return a.node_ == b.node_;
  }
  friend bool operator!=(const Expr& a, const Expr& b) { return !(a == b); }

  /// Numeric evaluation, memoized on shared subtrees.
  /// Missing symbols throw std::out_of_range.
  [[nodiscard]] double eval(const SymMap<double>& env) const;

  /// Substitute symbols by expressions (simultaneous), memoized on shared
  /// subtrees; subtrees not mentioning any bound symbol are returned as-is.
  [[nodiscard]] Expr subs(const SymMap<Expr>& env) const;

  /// Derivative with respect to `var`.  Min/Max subtrees containing `var`
  /// throw std::domain_error; subtrees free of `var` (min/max included)
  /// differentiate to 0 via the cached symbol sets.
  [[nodiscard]] Expr diff(SymId var) const;

  /// Sorted distinct SymIds occurring in the expression (cached per node;
  /// O(1) view, sorted by SymId — *not* by name).
  [[nodiscard]] std::span<const SymId> symbol_ids() const;
  /// All symbol names appearing in the expression, sorted by name.
  [[nodiscard]] std::vector<std::string> symbols() const;
  /// O(log #symbols) via the per-node symbol cache.
  [[nodiscard]] bool contains(SymId var) const;

  /// Human-readable rendering, e.g. "2*N^3/sqrt(S)".
  [[nodiscard]] std::string str() const;

  const Node& node() const { return *node_; }

 private:
  friend Expr make_add(ExprVec terms);
  friend Expr make_mul(ExprVec factors);
  friend Expr pow(const Expr& base, const Rational& e);
  friend Expr min(ExprVec args);
  friend Expr max(ExprVec args);
  friend std::pair<Rational, Expr> split_coefficient(const Expr& term);
  friend class detail::ExprFactory;
  explicit Expr(NodePtr n) : node_(std::move(n)) {}

  NodePtr node_;
};

struct Node {
  Kind kind;
  Rational value;               // kConst
  SymId sym;                    // kSymbol
  const std::string* sym_name = nullptr;  // kSymbol: interned name storage
  ExprVec operands;             // kAdd / kMul / kMin / kMax; kPow: {base}
  Rational exponent;            // kPow
  // Hash-consing metadata, filled exactly once when the node is interned.
  std::size_t hash = 0;         // content hash (cached, O(1) to read)
  std::uint64_t id = 0;         // global intern id (cheap total order)
  std::uint64_t sym_mask = 0;   // bloom mask over symbol_ids
  std::uint32_t tree_size = 1;  // saturating subtree node count (incl. repeats)
  support::SmallVec<SymId, 8> symbol_ids;  // sorted distinct subtree symbols
};

inline Kind Expr::kind() const { return node_->kind; }
inline bool Expr::is_zero() const {
  return is_const() && node_->value.is_zero();
}
inline bool Expr::is_one() const { return is_const() && node_->value.is_one(); }
inline std::span<const Expr> Expr::operands() const {
  return {node_->operands.data(), node_->operands.size()};
}
inline const Rational& Expr::exponent() const { return node_->exponent; }
inline std::size_t Expr::hash() const { return node_->hash; }
inline std::uint64_t Expr::id() const { return node_->id; }
inline std::span<const SymId> Expr::symbol_ids() const {
  return {node_->symbol_ids.data(), node_->symbol_ids.size()};
}

Expr operator+(const Expr& a, const Expr& b);
Expr operator-(const Expr& a, const Expr& b);
Expr operator-(const Expr& a);
Expr operator*(const Expr& a, const Expr& b);
Expr operator/(const Expr& a, const Expr& b);

/// Batch canonicalization entry points: flatten, fold constants, combine
/// like terms/factors, and intern the canonical node in one table pass.
/// `make_add({a, b})` is exactly `a + b`; for a large term list, one batch
/// call replaces the quadratic `sum = sum + term` folding chain and is the
/// preferred spelling on hot paths (bound assembly, polynomial conversion).
Expr make_add(ExprVec terms);
Expr make_mul(ExprVec factors);

/// base^e with rational constant exponent (canonicalizing).
Expr pow(const Expr& base, const Rational& e);
inline Expr sqrt(const Expr& e) { return pow(e, Rational(1, 2)); }
inline Expr cbrt(const Expr& e) { return pow(e, Rational(1, 3)); }

Expr min(ExprVec args);
Expr max(ExprVec args);

/// Distribute products/integer powers over sums (memoized per call).
Expr expand(const Expr& e);

std::ostream& operator<<(std::ostream& os, const Expr& e);

/// Splits a canonical term into (rational coefficient, remaining factor).
/// E.g. 3*N^2*sqrt(S) -> (3, N^2*sqrt(S)); 5 -> (5, 1).
std::pair<Rational, Expr> split_coefficient(const Expr& term);

/// Controls for the sampling-based semantic equality check.  The defaults
/// reproduce the historical behavior bit for bit; raising `trials` or varying
/// `seed` gives independent re-checks, and a failing fuzz/CI run can log the
/// (seed, trials) pair to reproduce exactly.
struct NumericEqualityOptions {
  int trials = 6;
  double tol = 1e-7;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;  // xorshift64 state seed
};

/// True if |a - b| evaluates to ~0 on deterministic quasi-random positive
/// assignments (xorshift64 stream from options.seed; symbols are assigned in
/// name order, so results are reproducible across runs and platforms).
/// A pragmatic semantic-equality check used by tests (structural canonical
/// equality already catches most cases).
bool numerically_equal(const Expr& a, const Expr& b,
                       const NumericEqualityOptions& options);
bool numerically_equal(const Expr& a, const Expr& b, double tol = 1e-7);

/// Diagnostics for the hash-consing intern table (tests, leak checks).
struct InternStats {
  std::size_t live_nodes = 0;   ///< nodes currently interned (all shards)
  std::uint64_t total_interned = 0;  ///< ids handed out since process start
};
InternStats expr_intern_stats();

}  // namespace soap::sym

/// Hash support so analysis layers can key unordered containers by Expr
/// (O(1): reads the cached node hash).
template <>
struct std::hash<soap::sym::Expr> {
  std::size_t operator()(const soap::sym::Expr& e) const noexcept {
    return e.hash();
  }
};
