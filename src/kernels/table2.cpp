#include "kernels/table2.hpp"

#include <stdexcept>

#include "support/parallel.hpp"

namespace soap::kernels {

std::vector<const KernelEntry*> table2_kernels() {
  // The published blocks, in published order; they lead the registry's
  // family list, so families appended after them never move these rows.
  std::vector<const KernelEntry*> rows;
  const Registry& registry = Registry::instance();
  for (const char* family : {"polybench", "neural", "various"}) {
    for (const KernelEntry* k : registry.family(family)) rows.push_back(k);
  }
  return rows;
}

sym::Expr analyze_kernel(const KernelEntry& entry, std::size_t threads,
                         support::ExecutorRef executor) {
  Program program = entry.build();
  sdg::SdgOptions options = entry.options;
  options.threads = threads;
  options.executor = executor;
  auto bound = sdg::multi_statement_bound(program, options);
  if (!bound) {
    throw std::runtime_error("analyze_kernel: no bound for " + entry.name);
  }
  return bound->Q_leading;
}

const KernelEntry& kernel_by_name(const std::string& name) {
  return Registry::instance().at(name);
}

std::size_t CorpusReport::failed() const {
  std::size_t n = 0;
  for (const KernelOutcome& k : kernels) n += k.ok() ? 0 : 1;
  return n;
}

std::size_t CorpusReport::degraded_count() const {
  std::size_t n = 0;
  for (const KernelOutcome& k : kernels) n += k.degraded ? 1 : 0;
  return n;
}

support::StatusCode CorpusReport::worst_status() const {
  for (const KernelOutcome& k : kernels) {
    if (k.status != support::StatusCode::kOk) return k.status;
  }
  return support::StatusCode::kOk;
}

std::string CorpusReport::failure_summary() const {
  const std::size_t nfailed = failed();
  const std::size_t ndegraded = degraded_count();
  if (nfailed == 0 && ndegraded == 0) return "";
  std::string out;
  for (const KernelOutcome& k : kernels) {
    if (k.ok() && !k.degraded) continue;
    out += "  " + k.kernel + " [" +
           support::status_code_name(k.status) + "]" +
           (k.degraded ? " degraded to per-statement bound" : " failed");
    if (!k.message.empty()) out += ": " + k.message;
    out += "\n";
  }
  out += std::to_string(kernels.size() - nfailed) + "/" +
         std::to_string(kernels.size()) + " kernels produced bounds (" +
         std::to_string(ndegraded) + " degraded, " +
         std::to_string(nfailed) + " failed)\n";
  return out;
}

KernelOutcome kernel_outcome(
    const KernelEntry& entry,
    const std::optional<sdg::MultiStatementBound>& bound) {
  KernelOutcome out;
  out.kernel = entry.name;
  out.family = entry.family;
  if (!bound) {
    out.status = support::StatusCode::kInvalidInput;
    out.message = "no non-trivial bound (unlimited reuse)";
    return out;
  }
  out.bound = bound->Q_leading;
  out.degraded = bound->degraded;
  // A degraded row keeps its bound but reports which criterion tripped.
  out.status = bound->degraded ? bound->degraded_reason
                               : support::StatusCode::kOk;
  return out;
}

KernelOutcome analyze_kernel_checked(
    const KernelEntry& entry, std::size_t threads,
    support::ExecutorRef executor, const support::StopCriteria& stop,
    const DeriveFn& derive) {
  KernelOutcome out;
  out.kernel = entry.name;
  out.family = entry.family;
  try {
    Program program = entry.build();
    sdg::SdgOptions options = entry.options;
    options.threads = threads;
    options.executor = executor;
    options.stop = stop;
    return kernel_outcome(entry, derive(program, options));
  } catch (const support::AnalysisError& error) {
    out.status = error.code();
    out.message = error.what();
  } catch (const std::exception& error) {
    out.status = support::StatusCode::kInternalError;
    out.message = error.what();
  }
  return out;
}

CorpusReport analyze_corpus_resilient(
    const std::vector<const KernelEntry*>& kernels,
    const CorpusOptions& options, const DeriveFn& derive) {
  support::ParallelOptions par;
  par.threads = options.threads;
  par.executor = options.executor;
  // Kernels are claimed concurrently, and each kernel's subgraph
  // parallel_map fans out over the same executor with the same budget.
  // While many kernels are in flight the executor is saturated either way;
  // once only a long kernel remains, its subgraphs spread over the idle
  // workers.  Caller participation at both levels means a starved executor
  // degrades to serial instead of deadlocking.
  //
  // Deliberately no par.cancel: cancellation must not abort the batch —
  // each kernel observes the token itself and records kCancelled in its own
  // slot, preserving the partial results the resilient contract promises.
  CorpusReport report;
  report.kernels = support::parallel_map<KernelOutcome>(
      kernels.size(), par, [&kernels, &options, &derive](std::size_t i) {
        return analyze_kernel_checked(*kernels[i], options.threads,
                                      options.executor, options.stop, derive);
      });
  return report;
}

}  // namespace soap::kernels
