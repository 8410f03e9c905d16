// Content-addressed cache keys for derived bounds (docs/SERVING.md).
//
// Every bound this repo derives is a pure function of (canonical lowered
// Program, bound-relevant SdgOptions fields).  This module computes a
// process-restart-safe digest of that pair: expressions are digested
// bottom-up over the hash-consed DAG with per-node memoization (shared
// subtrees are digested once), symbols by *name* (SymIds are handed out in
// process-local intern order), affine forms with coefficients sorted by
// variable name, and composite operands in their stored canonical order —
// which the structural compare() makes process-independent.
//
// What the key deliberately excludes: threads, executor, and stop
// criteria.  The determinism contract guarantees those never change the
// derived bound — they only change who computes it and whether a *budget
// trip* degrades it — and the cache never stores degraded
// results, so excluding them is what makes the cache useful across
// differently-configured clients while staying bit-identical.
#pragma once

#include "sdg/multi_statement.hpp"
#include "soap/statement.hpp"
#include "support/digest.hpp"
#include "symbolic/expr.hpp"

#include <unordered_map>

namespace soap::service {

/// Per-call memo for expression digests, keyed on node identity (Expr's
/// O(1) cached hash + pointer equality).  Reuse one across many
/// expr_digest calls to share work between expressions of one program.
using ExprDigestMemo = std::unordered_map<sym::Expr, support::Digest>;

/// Stable content digest of a canonical expression (bottom-up over the
/// DAG, memoized per node).  Equal canonical forms digest equally in every
/// process; alpha-inequivalent forms (different symbol names, coefficients,
/// structure) digest differently.
support::Digest expr_digest(const sym::Expr& e, ExprDigestMemo& memo);
support::Digest expr_digest(const sym::Expr& e);

/// Stable content digest of a lowered SOAP program: statements in order
/// (name, loop nest, output access, input accesses, max-overlap hints)
/// plus the array-size hints sorted by array name.
support::Digest program_digest(const Program& program);

/// The bound cache key: program digest x bound-relevant options
/// (max_subgraph_size, max_subgraphs, use_cold_bound, optimizer) x digest
/// format version.  The numeric backend is part of the key because
/// backends may legitimately derive different (equally sound) constants —
/// bounds computed under different backends must never alias.  See the
/// header comment for what is excluded and why.
struct CacheKey {
  support::Digest digest;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.digest == b.digest;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) {
    return !(a == b);
  }
};

CacheKey make_cache_key(const Program& program,
                        const sdg::SdgOptions& options);

}  // namespace soap::service

template <>
struct std::hash<soap::service::CacheKey> {
  std::size_t operator()(const soap::service::CacheKey& k) const noexcept {
    return std::hash<soap::support::Digest>{}(k.digest);
  }
};
