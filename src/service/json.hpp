// Minimal JSON rendering for the serving surfaces (docs/SERVING.md).
//
// One line per reply/row, stable field order, no dependencies: the server
// protocol, `analyze_tool --json`, and the latency bench all emit through
// these helpers so the machine-readable shapes stay identical.  Doubles
// render with %.17g (round-trippable); the *text* output of every tool is
// untouched — JSON is strictly an additional surface.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/attainment.hpp"
#include "kernels/table2.hpp"
#include "sdg/multi_statement.hpp"
#include "service/analyze.hpp"

namespace soap::service {

/// `"..."` with the JSON escapes (quote, backslash, control characters).
std::string json_string(std::string_view s);
/// Shortest round-trippable rendering of a double (%.17g; nan/inf render
/// as null, which JSON lacks).
std::string json_double(double v);

/// The bound fields shared by program replies and kernel rows, as an
/// object-body fragment (no braces):
///   "bound":"...","q_sdg":"...","q_cold":"...","degraded":false,
///   "subgraphs":12,"per_array":[{"array":"A","cdag_size":"...",
///   "rho":"...","rho_value":1.5},...]
std::string bound_json_fields(const sdg::MultiStatementBound& bound);

/// The reply to one program analysis, shared by the `analyzed` protocol
/// and `analyze_tool --json`, as an object-body fragment (no braces):
///   "digest":"...","cache":"miss","status":"ok",<bound_json_fields>
/// where "cache" is "off" without a cache, and a program with no
/// non-trivial bound carries "bound":null plus a "note" instead of the
/// bound fields.
std::string program_json_fields(const ProgramAnalysis& analysis);

/// One corpus row: {"family":"...","kernel":"...","status":"ok",
/// "degraded":false,"bound":"..."} — failed kernels carry "bound":null and
/// an "error" field.
std::string outcome_json(const kernels::KernelOutcome& outcome);

/// Whole resilient corpus report: {"kernels":[...],"analyzed":N,
/// "failed":F,"degraded":D,"status":"..."} (status = worst per-kernel
/// class, "ok" when clean).
std::string corpus_json(const kernels::CorpusReport& report);

/// One attainment row (docs/ATTAINMENT.md) with the table's columns.
std::string attainment_row_json(const analysis::AttainmentRow& row);

/// Whole attainment table: {"rows":[...],"violations":V}.
std::string attainment_json(const std::vector<analysis::AttainmentRow>& rows);

}  // namespace soap::service
