// The kernel corpus: every analyzable kernel, organized into families.
// The paper's fixed Table 2 corpus (polybench / neural / various) and the
// post-paper families (attention, sparse_stencil) are listed once, in
// enumeration order, in the family list of registry.cpp; each family
// translation unit provides the builder that returns its `KernelEntry`
// vector.  Everything that enumerates the corpus — the bench drivers,
// `analyze_tool --corpus/--family/--list-kernels`, the golden tests —
// walks the registry instead of a hardcoded array.
//
// See docs/ADDING_KERNELS.md for the end-to-end recipe (DSL source, family
// list entry, golden bound).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "sdg/multi_statement.hpp"
#include "soap/statement.hpp"
#include "symbolic/expr.hpp"

namespace soap::kernels {

/// One corpus kernel: its frontend DSL source, the engine configuration
/// that analyzes it, and the reference bounds the analysis is checked
/// against.
struct KernelEntry {
  /// Unique corpus-wide kernel name (`gemm`, `bert_encoder`, ...).
  std::string name;
  /// Family the kernel belongs to: "polybench" | "neural" | "various"
  /// (the original Table 2 blocks) | "attention" | "sparse_stencil".
  std::string family;
  /// Frontend DSL source of the kernel's SOAP program.
  std::string source;
  /// Problem-size symbols of the kernel (N, M, T, ...; never S).  Left
  /// empty by most entries and derived from `expected_bound` when the
  /// registry is built.
  std::vector<std::string> problem_sizes;
  /// Reference bound: the leading-order bound as printed in Table 2 of the
  /// paper for the original 38 rows, or the closed-form expected
  /// leading-order I/O bound recorded when a new kernel is added.
  sym::Expr paper_bound;
  /// What our engine derives with `options` (equals paper_bound for most
  /// kernels; differs where EXPERIMENTS.md documents why).
  sym::Expr expected_bound;
  std::string sota;         ///< prior best bound (display only)
  std::string improvement;  ///< Table 2 improvement factor (display only)
  sdg::SdgOptions options;  ///< engine configuration reproducing the bound
  std::string notes;        ///< encoding decisions worth surfacing

  /// The SOAP program: `source` parsed by frontend::parse_program.
  [[nodiscard]] Program build() const;
};

/// The process-wide kernel corpus, built from the family list on first
/// use and immutable afterwards, so every accessor below returns stable
/// references and is safe to call from any thread.
class Registry {
 public:
  /// The singleton instance (built on first use).
  static const Registry& instance();

  /// Every kernel of every family, in (family list, family builder) order.
  const std::vector<KernelEntry>& kernels() const { return kernels_; }

  /// Family names in enumeration order.
  const std::vector<std::string>& families() const { return families_; }

  /// The kernels of one family (empty vector for an unknown family).
  std::vector<const KernelEntry*> family(const std::string& family) const;

  /// Lookup by kernel name; nullptr when missing.
  const KernelEntry* find(const std::string& name) const;

  /// Lookup by kernel name; throws std::out_of_range when missing.
  const KernelEntry& at(const std::string& name) const;

  /// Total kernel count across all families.
  std::size_t size() const { return kernels_.size(); }

 private:
  Registry();

  std::vector<KernelEntry> kernels_;
  std::vector<std::string> families_;
  std::unordered_map<std::string, std::size_t> by_name_;
};

}  // namespace soap::kernels
