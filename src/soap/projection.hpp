// Projections of non-SOAP programs onto SOAP (Section 5 of the paper).
#pragma once

#include "soap/statement.hpp"

namespace soap {

/// Section 5.1 (non-overlapping access sets): when an array is referenced by
/// access-function components that are *not* mutually offset by constants
/// (e.g. LU's A[i,j], A[i,k], A[k,j]), partition the components into
/// maximal constant-offset groups and model each group as its own disjoint
/// pseudo-array `A@0`, `A@1`, ....  The output access keeps the group that
/// matches it (if any), so the input-output overlap analysis still applies.
Statement split_disjoint_accesses(const Statement& st);

/// Section 5.2 (equivalent input-output accesses): true when the statement
/// updates its output array through an *identical* access function
/// (A[i,j] = f(A[i,j], ...)), which requires the version-dimension
/// projection.  The bounds engine applies the resulting count (the plain
/// product over the accessed dimensions) directly; this predicate is used by
/// diagnostics and by the explicit CDAG instantiation, which materializes
/// versions as separate vertices.
bool needs_version_dimension(const Statement& st);

}  // namespace soap
