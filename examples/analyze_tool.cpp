// The open-source tool of the paper's abstract: derives I/O lower bounds
// directly from provided C (or Python-style) code, and enumerates the
// registered kernel corpus.
//
//   soap_analyze [file]                  # reads the program from a file or
//                                        # stdin
//   soap_analyze --sdg [file]            # also dump the SDG in Graphviz
//                                        # format
//   soap_analyze --threads N ...         # fan the per-subgraph analysis
//                                        # out over N workers (0 = all
//                                        # hardware threads); the derived
//                                        # bound is identical for every
//                                        # thread count
//   soap_analyze --max-subgraph-size N   # largest subgraph cardinality
//                                        # enumerated (1 disables fusion
//                                        # analysis)
//   soap_analyze --max-subgraphs N       # cap on the number of enumerated
//                                        # subgraphs
//   soap_analyze --list-kernels          # list the registered corpus
//                                        # (family, name, problem sizes)
//   soap_analyze --corpus                # analyze every registered kernel
//                                        # with its recorded configuration
//   soap_analyze --family NAME           # restrict --corpus/--attainment
//                                        # to one family (alone it implies
//                                        # --corpus)
//   soap_analyze --attainment            # close the loop over the corpus:
//                                        # bound -> optimal tiles -> tiled
//                                        # trace -> simulated I/O (LRU +
//                                        # Belady) per kernel and cache
//                                        # size; exits non-zero if any
//                                        # kernel's simulated I/O beats
//                                        # its bound (soundness gate)
//   soap_analyze --cache-sizes N,N,...   # fast-memory sizes swept by
//                                        # --attainment (default 96,384)
//   soap_analyze --kernel NAME           # analyze one registered kernel
//                                        # with its recorded configuration
//   soap_analyze --timeout-ms N          # wall-clock deadline on the
//                                        # analysis (0 = unlimited); a trip
//                                        # degrades to the per-statement
//                                        # bound and exits 4
//   soap_analyze --node-budget N         # cap on live interned symbolic
//                                        # nodes (0 = unlimited); a trip
//                                        # degrades and exits 5
//   soap_analyze --json                  # machine-readable output: one
//                                        # JSON object per run (program,
//                                        # --kernel, --corpus, and
//                                        # --attainment modes); the text
//                                        # format is untouched
//   soap_analyze --cache                 # route derivations through the
//                                        # in-memory bound cache (program,
//                                        # --kernel, --corpus modes);
//                                        # results are bit-identical
//   soap_analyze --cache-file PATH       # persistent cache (implies
//                                        # --cache): loaded at startup,
//                                        # appended on every store
//
// Exit codes follow support::StatusCode (docs/ROBUSTNESS.md): 0 ok,
// 1 internal error, 2 invalid input/usage, 3 optimizer no-converge,
// 4 deadline exceeded, 5 budget exceeded, 6 cancelled.  A degraded run
// still prints its (per-statement) bound before exiting with the trip
// code, so callers get the partial result and the reason.
//
// Any malformed flag value or unknown option prints the usage message and
// exits non-zero.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/attainment.hpp"
#include "frontend/lower.hpp"
#include "kernels/table2.hpp"
#include "sdg/multi_statement.hpp"
#include "sdg/sdg.hpp"
#include "service/analyze.hpp"
#include "service/bound_cache.hpp"
#include "service/json.hpp"
#include "soap/program.hpp"
#include "support/cancel.hpp"
#include "support/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sdg] [--threads N] [--max-subgraph-size N] "
               "[--max-subgraphs N] [file]\n"
               "       %s --list-kernels | --corpus | --family NAME | "
               "--kernel NAME [--threads N]\n"
               "       %s --attainment [--family NAME] "
               "[--cache-sizes N,N,...] [--threads N]\n"
               "  any mode also accepts --timeout-ms N and --node-budget N\n"
               "  reads the program from [file], or stdin when omitted\n",
               argv0, argv0, argv0);
  return soap::support::status_exit_code(
      soap::support::StatusCode::kInvalidInput);
}

// Strict parse of a `--cache-sizes` CSV: non-empty, positive sizes only.
bool parse_cache_sizes(const std::string& csv, std::vector<long long>& out) {
  out.clear();
  std::string token;
  std::istringstream ss(csv);
  while (std::getline(ss, token, ',')) {
    std::optional<std::size_t> v = soap::support::parse_size_t(token);
    if (!v || *v == 0) return false;
    out.push_back(static_cast<long long>(*v));
  }
  return !out.empty();
}

// The kernels --corpus/--attainment run: every registered kernel, or the
// kernels of `family` when one is given.  Empty (after printing the error)
// for an unknown family.
std::vector<const soap::kernels::KernelEntry*> select_kernels(
    const std::string& family) {
  using namespace soap;
  const kernels::Registry& registry = kernels::Registry::instance();
  std::vector<const kernels::KernelEntry*> rows;
  if (family.empty()) {
    for (const kernels::KernelEntry& k : registry.kernels()) {
      rows.push_back(&k);
    }
    return rows;
  }
  rows = registry.family(family);
  if (rows.empty()) {
    std::fprintf(stderr, "unknown kernel family '%s'\n", family.c_str());
  }
  return rows;
}

// The note under a degraded bound (the partial result of a tripped run).
void print_degraded_note(soap::support::StatusCode reason) {
  std::printf("degraded [%s]: a budget criterion tripped "
              "mid-derivation; the bound above is the sound "
              "per-statement fallback (partial result)\n",
              soap::support::status_code_name(reason));
}

// --attainment: the close-the-loop table (docs/ATTAINMENT.md): per
// (kernel, cache size), the corpus bound next to the simulated I/O of the
// derived tiling, with the soundness invariant enforced via the exit code.
int run_attainment(const std::string& family, std::size_t threads,
                   const std::vector<long long>& cache_sizes,
                   const soap::support::StopCriteria& stop, bool json) {
  using namespace soap;
  const std::vector<const kernels::KernelEntry*> kernels =
      select_kernels(family);
  if (kernels.empty()) {
    return support::status_exit_code(support::StatusCode::kInvalidInput);
  }
  analysis::AttainmentOptions options;
  options.threads = threads;
  options.stop = stop;
  if (!cache_sizes.empty()) options.cache_sizes = cache_sizes;
  const std::vector<analysis::AttainmentRow> rows =
      analysis::attainment_table(kernels, options);
  if (json) {
    std::printf("%s\n", service::attainment_json(rows).c_str());
  } else {
    std::fputs(analysis::format_attainment_table(rows).c_str(), stdout);
  }
  return analysis::count_unsound(rows) == 0 ? 0 : 1;
}

// --list-kernels: the registered corpus, one kernel per line, grouped by
// family in registry order.  The format is line-oriented on purpose so CI
// can grep it (see .github/workflows/ci.yml).
int list_kernels() {
  using namespace soap;
  const kernels::Registry& registry = kernels::Registry::instance();
  for (const std::string& family : registry.families()) {
    for (const kernels::KernelEntry* k : registry.family(family)) {
      std::string sizes;
      for (const std::string& s : k->problem_sizes) {
        if (!sizes.empty()) sizes += ",";
        sizes += s;
      }
      std::printf("%-16s %-22s %s\n", family.c_str(), k->name.c_str(),
                  sizes.c_str());
    }
  }
  std::printf("%zu kernels in %zu families\n", registry.size(),
              registry.families().size());
  return 0;
}

// --corpus / --family: analyze registered kernels with their recorded
// engine configuration (batched across `threads` workers; the bounds are
// bit-identical for every thread count) and report each derived bound
// next to its reference.  The run is resilient: a kernel that fails or
// degrades reports its status in its own row instead of aborting the
// batch, the failure summary goes to stderr, and the exit code is the
// class of the first non-ok kernel.
int run_corpus(const std::string& family, std::size_t threads,
               const soap::support::StopCriteria& stop, bool json,
               const soap::kernels::DeriveFn& derive) {
  using namespace soap;
  const std::vector<const kernels::KernelEntry*> rows = select_kernels(family);
  if (rows.empty()) {
    return support::status_exit_code(support::StatusCode::kInvalidInput);
  }
  kernels::CorpusOptions options;
  options.threads = threads;
  options.stop = stop;
  const kernels::CorpusReport report =
      kernels::analyze_corpus_resilient(rows, options, derive);
  if (json) {
    std::printf("%s\n", service::corpus_json(report).c_str());
  } else {
    for (const kernels::KernelOutcome& out : report.kernels) {
      if (out.ok()) {
        std::printf("%-16s %-22s Q >= %s%s\n", out.family.c_str(),
                    out.kernel.c_str(), out.bound->str().c_str(),
                    out.degraded ? "  [degraded]" : "");
      } else {
        std::printf("%-16s %-22s FAILED [%s]%s%s\n", out.family.c_str(),
                    out.kernel.c_str(), support::status_code_name(out.status),
                    out.message.empty() ? "" : ": ", out.message.c_str());
      }
    }
    std::printf("%zu kernels analyzed\n", report.kernels.size());
  }
  const std::string summary = report.failure_summary();
  if (!summary.empty()) std::fputs(summary.c_str(), stderr);
  return support::status_exit_code(report.worst_status());
}

// --kernel NAME: one registered kernel with its recorded configuration,
// under the given stop criteria.  A degraded run still prints its
// (per-statement fallback) bound — the partial result — before exiting
// with the trip code.
int run_kernel(const std::string& name, std::size_t threads,
               const soap::support::StopCriteria& stop, bool json,
               const soap::kernels::DeriveFn& derive) {
  using namespace soap;
  const kernels::KernelEntry* entry = nullptr;
  try {
    entry = &kernels::kernel_by_name(name);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown kernel '%s' (see --list-kernels)\n",
                 name.c_str());
    return support::status_exit_code(support::StatusCode::kInvalidInput);
  }
  const kernels::KernelOutcome out =
      kernels::analyze_kernel_checked(*entry, threads, {}, stop, derive);
  if (json) {
    std::printf("%s\n", service::outcome_json(out).c_str());
    return support::status_exit_code(out.status);
  }
  if (out.ok()) {
    std::printf("%-16s %-22s Q >= %s\n", out.family.c_str(),
                out.kernel.c_str(), out.bound->str().c_str());
    if (out.degraded) print_degraded_note(out.status);
  } else {
    std::fprintf(stderr, "error [%s]: %s\n",
                 support::status_code_name(out.status), out.message.c_str());
  }
  return support::status_exit_code(out.status);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soap;
  bool dump_sdg = false;
  bool list = false;
  bool corpus = false;
  bool attainment = false;
  bool json = false;
  bool use_cache = false;
  std::string cache_file;
  std::string family;
  std::string kernel;
  std::string cache_sizes_csv;
  std::vector<long long> cache_sizes;
  std::string path;
  std::size_t timeout_ms = 0;
  std::size_t node_budget = 0;
  sdg::SdgOptions options;
  struct BoolFlag {
    const char* arg;
    bool* out;
  };
  const BoolFlag bool_flags[] = {
      {"--sdg", &dump_sdg},
      {"--list-kernels", &list},
      {"--corpus", &corpus},
      {"--attainment", &attainment},
      {"--json", &json},
      {"--cache", &use_cache},
  };
  // Strict parse (support::consume_*_flag): a typo must not dial the tool
  // up to hardware_concurrency or silently change the enumeration caps, so
  // unlike the silent serial fallback of the Table 2 benches, a bad value
  // here is a usage error.
  struct StringFlag {
    const char* name;
    std::string* out;
  };
  const StringFlag string_flags[] = {
      {"cache-file", &cache_file},
      {"cache-sizes", &cache_sizes_csv},
      {"family", &family},
      {"kernel", &kernel},
  };
  struct SizeFlag {
    const char* name;
    std::size_t* out;
  };
  const SizeFlag size_flags[] = {
      {"threads", &options.threads},
      {"max-subgraph-size", &options.max_subgraph_size},
      {"max-subgraphs", &options.max_subgraphs},
      {"timeout-ms", &timeout_ms},
      {"node-budget", &node_budget},
  };
  std::string flag_error;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool matched = false;
    for (const BoolFlag& flag : bool_flags) {
      if (arg != flag.arg) continue;
      *flag.out = true;
      matched = true;
    }
    if (matched) continue;
    // Valued flags: the first table entry that recognizes `arg` consumes
    // it; a recognized flag with a bad value is a usage error.
    support::FlagParse parsed = support::FlagParse::kNoMatch;
    const char* parsed_name = nullptr;
    for (const StringFlag& flag : string_flags) {
      if (parsed != support::FlagParse::kNoMatch) break;
      parsed = support::consume_string_flag(argc, argv, i, flag.name,
                                            *flag.out, &flag_error);
      parsed_name = flag.name;
    }
    for (const SizeFlag& flag : size_flags) {
      if (parsed != support::FlagParse::kNoMatch) break;
      parsed = support::consume_size_flag(argc, argv, i, flag.name, *flag.out,
                                          &flag_error);
      parsed_name = flag.name;
    }
    if (parsed == support::FlagParse::kBadValue) {
      std::fprintf(stderr, "invalid value for --%s: %s\n", parsed_name,
                   flag_error.c_str());
      return usage(argv[0]);
    }
    if (parsed == support::FlagParse::kOk) continue;
    if (arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
    if (!path.empty()) {
      std::fprintf(stderr, "more than one input file ('%s' and '%s')\n",
                   path.c_str(), arg.c_str());
      return usage(argv[0]);
    }
    path = arg;
  }
  if (!cache_file.empty()) use_cache = true;
  if (!cache_sizes_csv.empty() &&
      !parse_cache_sizes(cache_sizes_csv, cache_sizes)) {
    std::fprintf(stderr,
                 "invalid --cache-sizes '%s' (comma-separated "
                 "positive sizes)\n",
                 cache_sizes_csv.c_str());
    return usage(argv[0]);
  }
  // `--family NAME` on its own is a corpus filter; with --attainment it
  // filters the attainment sweep instead.
  if (!family.empty() && !attainment) corpus = true;
  const bool registry_mode = list || corpus || attainment || !kernel.empty();
  if (registry_mode && !path.empty()) {
    std::fprintf(stderr,
                 "--list-kernels/--corpus/--attainment/--kernel take no "
                 "input file\n");
    return usage(argv[0]);
  }
  // The corpus modes analyze each kernel with its *recorded* engine
  // configuration (that is what the golden bounds are pinned against), so
  // the per-program knobs cannot apply there; accepting and ignoring them
  // would break this tool's strict-flag contract.
  const sdg::SdgOptions defaults;
  if (registry_mode &&
      (dump_sdg ||
       options.max_subgraph_size != defaults.max_subgraph_size ||
       options.max_subgraphs != defaults.max_subgraphs)) {
    std::fprintf(stderr,
                 "--sdg/--max-subgraph-size/--max-subgraphs do not apply to "
                 "--list-kernels/--corpus/--attainment/--kernel (kernels "
                 "use their recorded configuration; only --threads, "
                 "--timeout-ms, and --node-budget apply)\n");
    return usage(argv[0]);
  }
  if (!cache_sizes.empty() && !attainment) {
    std::fprintf(stderr, "--cache-sizes only applies to --attainment\n");
    return usage(argv[0]);
  }
  if (attainment && (list || corpus)) {
    std::fprintf(stderr,
                 "--attainment conflicts with --list-kernels/--corpus\n");
    return usage(argv[0]);
  }
  if (!kernel.empty() && (list || corpus || attainment)) {
    std::fprintf(stderr,
                 "--kernel conflicts with "
                 "--list-kernels/--corpus/--family/--attainment\n");
    return usage(argv[0]);
  }
  if (json && (list || dump_sdg)) {
    std::fprintf(stderr, "--json does not apply to --list-kernels or --sdg\n");
    return usage(argv[0]);
  }
  // Attainment derives tiles and runs simulations beyond the cached bound
  // surface, and --list-kernels derives nothing; accepting --cache there
  // would silently do nothing, breaking this tool's strict-flag contract.
  if (use_cache && (list || attainment)) {
    std::fprintf(stderr,
                 "--cache/--cache-file do not apply to "
                 "--list-kernels/--attainment\n");
    return usage(argv[0]);
  }
  // Termination criteria apply uniformly to every analysis mode; the
  // deadline clock starts here, after flag parsing.
  support::StopCriteria stop;
  if (timeout_ms != 0) stop.deadline = support::Deadline::after_ms(timeout_ms);
  stop.budget.max_live_nodes = node_budget;
  options.stop = stop;
  std::unique_ptr<service::BoundCache> cache;
  kernels::DeriveFn derive = sdg::multi_statement_bound;
  if (use_cache) {
    service::BoundCacheOptions cache_options;
    cache_options.persist_path = cache_file;
    cache = std::make_unique<service::BoundCache>(cache_options);
    derive = service::cached_derive(*cache);
  }
  if (list) return list_kernels();
  if (attainment) {
    return run_attainment(family, options.threads, cache_sizes, stop, json);
  }
  if (corpus) {
    return run_corpus(family, options.threads, stop, json, derive);
  }
  if (!kernel.empty()) {
    return run_kernel(kernel, options.threads, stop, json, derive);
  }
  std::string source;
  if (path.empty()) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    source = ss.str();
  } else {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return support::status_exit_code(support::StatusCode::kInvalidInput);
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    source = ss.str();
  }
  try {
    Program program = frontend::parse_program(source);
    if (!json) {
      std::printf("parsed %zu statement(s):\n%s\n", program.statements.size(),
                  program.str().c_str());
      for (const auto& v : check_soap(program)) {
        std::printf("note [%s/%s]: %s\n", v.statement.c_str(),
                    v.array.c_str(), v.reason.c_str());
      }
      if (dump_sdg) {
        std::printf("\n%s\n", sdg::Sdg::build(program).dot().c_str());
      }
    }
    const service::ProgramAnalysis analysis =
        service::analyze_program(cache.get(), program, options);
    const std::optional<sdg::MultiStatementBound>& bound = analysis.bound;
    const int code = bound && bound->degraded
                         ? support::status_exit_code(bound->degraded_reason)
                         : 0;
    if (json) {
      std::printf("{%s}\n", service::program_json_fields(analysis).c_str());
      return code;
    }
    if (!bound) {
      std::puts("no non-trivial bound (unbounded reuse)");
      return 0;
    }
    std::printf("I/O lower bound:  Q >= %s\n", bound->Q_leading.str().c_str());
    if (bound->degraded) print_degraded_note(bound->degraded_reason);
    std::printf("per-array accounting (Theorem 1):\n");
    for (const auto& a : bound->per_array) {
      std::printf("  %-12s |A| = %-18s best rho = %s\n", a.array.c_str(),
                  a.cdag_size.str().c_str(), a.rho.str().c_str());
    }
    return code;
  } catch (const support::AnalysisError& e) {
    std::fprintf(stderr, "error [%s]: %s\n",
                 support::status_code_name(e.code()), e.what());
    return support::status_exit_code(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
