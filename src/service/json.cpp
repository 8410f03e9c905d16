#include "service/json.hpp"

#include <cmath>
#include <cstdio>

#include "support/cancel.hpp"

namespace soap::service {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string bound_json_fields(const sdg::MultiStatementBound& bound) {
  std::string out = "\"bound\":" + json_string(bound.Q_leading.str());
  out += ",\"q_sdg\":" + json_string(bound.Q_sdg.str());
  out += ",\"q_cold\":" + json_string(bound.Q_cold.str());
  out += ",\"degraded\":";
  out += bound.degraded ? "true" : "false";
  if (bound.degraded) {
    out += ",\"degraded_reason\":";
    out += json_string(support::status_code_name(bound.degraded_reason));
  }
  out += ",\"subgraphs\":" + std::to_string(bound.subgraphs_evaluated);
  out += ",\"per_array\":[";
  bool first = true;
  for (const sdg::ArrayBound& a : bound.per_array) {
    if (!first) out += ',';
    first = false;
    out += "{\"array\":" + json_string(a.array);
    out += ",\"cdag_size\":" + json_string(a.cdag_size.str());
    out += ",\"rho\":" + json_string(a.rho.str());
    out += ",\"rho_value\":" + json_double(a.rho_value);
    out += '}';
  }
  out += ']';
  return out;
}

std::string program_json_fields(const ProgramAnalysis& analysis) {
  std::string out = "\"digest\":" + json_string(analysis.key.digest.hex());
  out += ",\"cache\":" +
         json_string(analysis.outcome ? cache_outcome_name(*analysis.outcome)
                                      : "off");
  const std::optional<sdg::MultiStatementBound>& bound = analysis.bound;
  if (!bound) {
    return out +
           ",\"status\":\"ok\",\"bound\":null,"
           "\"note\":\"no non-trivial bound (unlimited reuse)\"";
  }
  const char* status =
      bound->degraded ? support::status_code_name(bound->degraded_reason)
                      : "ok";
  return out + ",\"status\":" + json_string(status) + ',' +
         bound_json_fields(*bound);
}

std::string outcome_json(const kernels::KernelOutcome& outcome) {
  std::string out = "{\"family\":" + json_string(outcome.family);
  out += ",\"kernel\":" + json_string(outcome.kernel);
  out += ",\"status\":";
  out += json_string(support::status_code_name(outcome.status));
  out += ",\"degraded\":";
  out += outcome.degraded ? "true" : "false";
  out += ",\"bound\":";
  out += outcome.ok() ? json_string(outcome.bound->str()) : "null";
  if (!outcome.message.empty()) {
    out += ",\"error\":" + json_string(outcome.message);
  }
  out += '}';
  return out;
}

std::string corpus_json(const kernels::CorpusReport& report) {
  std::string out = "{\"kernels\":[";
  bool first = true;
  for (const kernels::KernelOutcome& k : report.kernels) {
    if (!first) out += ',';
    first = false;
    out += outcome_json(k);
  }
  out += "],\"analyzed\":" + std::to_string(report.kernels.size());
  out += ",\"failed\":" + std::to_string(report.failed());
  out += ",\"degraded\":" + std::to_string(report.degraded_count());
  out += ",\"status\":";
  out += json_string(support::status_code_name(report.worst_status()));
  out += '}';
  return out;
}

std::string attainment_row_json(const analysis::AttainmentRow& row) {
  std::string out = "{\"family\":" + json_string(row.family);
  out += ",\"kernel\":" + json_string(row.kernel);
  out += ",\"S\":" + std::to_string(row.S);
  out += ",\"statements\":" + std::to_string(row.statements);
  out += ",\"fused\":";
  out += row.fused ? "true" : "false";
  out += ",\"degraded\":";
  out += row.degraded ? "true" : "false";
  out += ",\"params\":{";
  bool first = true;
  for (const auto& [name, value] : row.params) {
    if (!first) out += ',';
    first = false;
    out += json_string(name) + ":" + std::to_string(value);
  }
  out += "},\"q_lb\":" + json_double(row.Q_lb);
  out += ",\"q_sim_lru\":" + std::to_string(row.Q_sim_lru);
  out += ",\"q_sim_belady\":" + std::to_string(row.Q_sim_belady);
  out += ",\"ratio\":" + json_double(row.ratio());
  out += ",\"trace_length\":" + std::to_string(row.trace_length);
  out += ",\"footprint\":" + std::to_string(row.footprint);
  out += ",\"sound\":";
  out += row.sound() ? "true" : "false";
  out += '}';
  return out;
}

std::string attainment_json(
    const std::vector<analysis::AttainmentRow>& rows) {
  std::string out = "{\"rows\":[";
  bool first = true;
  for (const analysis::AttainmentRow& row : rows) {
    if (!first) out += ',';
    first = false;
    out += attainment_row_json(row);
  }
  out += "],\"violations\":" + std::to_string(analysis::count_unsound(rows));
  out += '}';
  return out;
}

}  // namespace soap::service
