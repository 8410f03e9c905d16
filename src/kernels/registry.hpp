// The extensible kernel corpus: a process-wide registry of analyzable
// kernels, organized into families.  The paper's fixed Table 2 corpus
// (polybench / neural / various) is registered here by its three family
// translation units, and new families (attention, sparse_stencil, ...)
// plug in the same way: a translation unit builds its `KernelEntry`
// vector and self-registers it with a `FamilyRegistrar` at static-init
// time.  Everything that enumerates the corpus — the bench drivers,
// `analyze_tool --corpus/--family/--list-kernels`, the golden tests —
// walks the registry instead of a hardcoded array.
//
// See docs/ADDING_KERNELS.md for the end-to-end recipe (DSL source,
// registration, golden bound) and the one linker subtlety of
// self-registration from a static library.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sdg/multi_statement.hpp"
#include "soap/statement.hpp"
#include "symbolic/expr.hpp"

namespace soap::kernels {

/// One corpus kernel: how to build its SOAP program, the engine
/// configuration that analyzes it, and the reference bounds the analysis
/// is checked against.
struct KernelEntry {
  /// Unique corpus-wide kernel name (`gemm`, `bert_encoder`, ...).
  std::string name;
  /// Family the kernel belongs to: "polybench" | "neural" | "various"
  /// (the original Table 2 blocks) | "attention" | "sparse_stencil" | any
  /// family a registrar adds.
  std::string family;
  /// Builds the SOAP program (typically by parsing `source` through the
  /// frontend; heavier kernels may construct the Program programmatically).
  std::function<Program()> build;
  /// Frontend DSL source when the kernel is defined through it (set by
  /// `set_dsl_source`); informational — `build` is authoritative.
  std::string source;
  /// Problem-size symbols of the kernel (N, M, T, ...; never S).  Left
  /// empty by most entries and derived from `expected_bound` when the
  /// registry materializes.
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
};

/// Sets `entry.source` and installs a `build` that parses it with the
/// frontend (`frontend::parse_program`).  The convenience used by every
/// DSL-defined corpus kernel.
void set_dsl_source(KernelEntry& entry, std::string source);

/// The process-wide kernel corpus.  Families register themselves during
/// static initialization (see FamilyRegistrar); the entry vectors are
/// built lazily on first enumeration and immutable afterwards, so every
/// accessor below returns stable references and is safe to call from any
/// thread.
class Registry {
 public:
  /// The singleton instance (created on first use).
  static Registry& instance();

  /// Registers a family: a display name, an ordering rank (families are
  /// enumerated by ascending rank, then name — the original Table 2 blocks
  /// use ranks 0..2 so corpus order is stable as families are added), and
  /// a builder returning the family's entries.  Must run before the first
  /// enumeration (i.e. during static init); throws std::logic_error after
  /// the registry has materialized.
  void add_family(std::string family, int rank,
                  std::function<std::vector<KernelEntry>()> build);

  /// Every kernel of every family, in (family rank, registration) order.
  const std::vector<KernelEntry>& kernels() const;

  /// Family names in enumeration order.
  std::vector<std::string> families() const;

  /// The kernels of one family (empty vector for an unknown family).
  std::vector<const KernelEntry*> family(const std::string& family) const;

  /// Lookup by kernel name; nullptr when missing.
  const KernelEntry* find(const std::string& name) const;

  /// Lookup by kernel name; throws std::out_of_range when missing.
  const KernelEntry& at(const std::string& name) const;

  /// Total kernel count across all families.
  std::size_t size() const { return kernels().size(); }

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Self-registration hook: a namespace-scope `FamilyRegistrar` in a family
/// translation unit registers the family when the TU's statics are
/// initialized.  Because the corpus is a static library, a family TU that
/// nothing references would be dropped by the linker; registry.cpp anchors
/// every in-tree family TU (see docs/ADDING_KERNELS.md for the recipe when
/// adding one).
struct FamilyRegistrar {
  FamilyRegistrar(const char* family, int rank,
                  std::vector<KernelEntry> (*build)());
};

}  // namespace soap::kernels
