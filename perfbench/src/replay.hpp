// Stage-by-stage replay of one bound derivation through public calls:
// Sdg::build, for_each_subgraph, merge_subgraph, derive_chi (plus the two
// numeric solves it makes, re-run through the backend so their time and
// evaluations can be counted), minimize_intensity, the reference
// evaluation of rho, and the Theorem-1 reduction over the results.  Each
// call is wrapped in a span named after its layer; the counters below
// accumulate across replays.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sdg/multi_statement.hpp"
#include "soap/statement.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

struct DerivationCounters {
  std::size_t chi_calls = 0;
  std::size_t chi_unbounded = 0;  ///< derive_chi returned nullopt
  std::size_t chi_exact = 0;      ///< constant snapped to an exact value
  std::size_t evaluated = 0;      ///< subgraphs with a finite rho
  std::size_t distinct_rho = 0;   ///< distinct rho nodes per derivation
  std::uint64_t opt_evals = 0;
  std::size_t opt_solves = 0;
  std::size_t opt_no_converge = 0;
  std::size_t live_nodes_peak = 0;
  std::size_t subgraphs = 0;      ///< enumerated
};

struct ReplayResult {
  std::size_t evaluated = 0;
  /// The bound the replayed Theorem-1 reduction assembles.
  soap::sym::Expr Q_leading;
  /// rho of every evaluated subgraph, keyed by its array set.
  std::map<std::vector<std::string>, soap::sym::Expr> rho_of;
};

/// Replays the derivation of `program` under `options` (serially).  Spans
/// are opened under whatever span is open in `tracer`.
ReplayResult replay_derivation(Tracer& tracer, const soap::Program& program,
                               const soap::sdg::SdgOptions& options,
                               const std::string& owner,
                               DerivationCounters& counters);

/// Checks a product bound against its replay: same evaluated-subgraph
/// count, for every array's winning subgraph the same rho node, and the
/// same final bound node.
/// Returns an empty string when consistent, else what differs.
std::string check_replay(const soap::sdg::MultiStatementBound& product,
                         const ReplayResult& replay);

/// Adds the kernels/sdg/bounds/symbolic layer metrics of the replays
/// recorded in `tracer`.
void add_derivation_layers(Report& report, const Tracer& tracer,
                           const DerivationCounters& counters);

/// Samples support::live_node_count() into `counters.live_nodes_peak`.
void sample_live_nodes(DerivationCounters& counters);

}  // namespace perfbench
