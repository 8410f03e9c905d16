// Shared table-printing helpers for the Table 2 reproduction benches.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.hpp"
#include "kernels/table2.hpp"
#include "support/cancel.hpp"

namespace soap::bench {

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%-22s | %-38s | %-38s | %-34s | %s\n", "kernel",
              "SOAP bound (this implementation)", "paper bound (Table 2)",
              "prior state of the art", "improv.");
  std::printf("%s\n", std::string(150, '-').c_str());
}

inline void print_row(const kernels::KernelEntry& k, const sym::Expr& ours) {
  bool match = sym::numerically_equal(ours, k.paper_bound);
  std::printf("%-22s | %-38s | %-38s | %-34s | %s%s\n", k.name.c_str(),
              ours.str().c_str(), k.paper_bound.str().c_str(), k.sota.c_str(),
              k.improvement.c_str(), match ? "" : "  [differs: see notes]");
  if (!match && !k.notes.empty()) {
    std::printf("%-22s |   note: %s\n", "", k.notes.c_str());
  }
}

/// Analyzes one registry family as one kernels::analyze_corpus_resilient
/// batch (`threads` executors; default 1 = serial): kernels are claimed
/// concurrently and each kernel's subgraphs fan out over the same
/// executor, so the family's longest kernel no longer serializes the
/// tail.  The bounds land in per-kernel slots and the table is printed
/// afterwards in registry order, so the output is byte-identical for every
/// thread count.  Returns non-zero for an unknown (empty) family so a
/// driver typo fails loudly, and the status exit code of the first failed
/// kernel (its failure summary on stderr) when any kernel did not yield a
/// clean bound.
inline int run_family(const char* title, const std::string& family,
                      int max_rows = -1, std::size_t threads = 1) {
  print_header(title);
  std::vector<const kernels::KernelEntry*> rows =
      kernels::Registry::instance().family(family);
  if (rows.empty()) {
    std::printf("unknown kernel family '%s'\n", family.c_str());
    return 1;
  }
  if (max_rows >= 0 && rows.size() > static_cast<std::size_t>(max_rows)) {
    rows.resize(static_cast<std::size_t>(max_rows));
  }
  kernels::CorpusOptions options;
  options.threads = threads;
  const kernels::CorpusReport report =
      kernels::analyze_corpus_resilient(rows, options);
  if (report.worst_status() != support::StatusCode::kOk) {
    std::fputs(report.failure_summary().c_str(), stderr);
    return support::status_exit_code(report.worst_status());
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    print_row(*rows[i], *report.kernels[i].bound);
  }
  std::printf("%zu applications analyzed.\n", rows.size());
  return 0;
}

}  // namespace soap::bench
