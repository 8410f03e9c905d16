// The kernel corpus registry: the family list's enumeration order, lookup,
// derived metadata, and the invariant the golden tests lean on — registry
// growth never disturbs the original Table 2 rows.
#include "kernels/registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "kernels/table2.hpp"

namespace soap::kernels {
namespace {

TEST(Registry, EnumeratesFamiliesAndKernelsInListOrder) {
  // The corpus and attainment JSON rows follow this order.
  EXPECT_EQ(Registry::instance().families(),
            (std::vector<std::string>{"polybench", "neural", "various",
                                      "attention", "sparse_stencil"}));
  std::vector<std::string> names;
  for (const KernelEntry& k : Registry::instance().kernels()) {
    names.push_back(k.name);
  }
  const std::vector<std::string> expected = {
      // polybench
      "gemm", "2mm", "3mm", "lu", "ludcmp", "cholesky", "correlation",
      "covariance", "syrk", "syr2k", "symm", "trmm", "doitgen", "gramschmidt",
      "atax", "bicg", "mvt", "gemver", "gesummv", "trisolv", "durbin",
      "deriche", "jacobi1d", "jacobi2d", "seidel2d", "heat3d", "fdtd2d", "adi",
      "floyd_warshall", "nussinov",
      // neural
      "conv", "softmax", "mlp", "lenet5", "bert_encoder",
      // various
      "lulesh", "horizontal_diffusion", "vertical_advection",
      // attention
      "attention", "mqa", "flash_attention",
      // sparse_stencil
      "spmv_csr", "stencil_sweep"};
  EXPECT_EQ(names, expected);
}

TEST(Registry, KernelsGroupByFamilyInEnumerationOrder) {
  // kernels() is the concatenation of the families in list order: every
  // family forms one contiguous block, so corpus indices are stable as
  // long as new families are appended to the list.
  const auto& all = Registry::instance().kernels();
  ASSERT_GE(all.size(), 43u);
  std::vector<std::string> block_order;
  for (const KernelEntry& k : all) {
    if (block_order.empty() || block_order.back() != k.family) {
      block_order.push_back(k.family);
    }
  }
  EXPECT_EQ(block_order, Registry::instance().families());
}

TEST(Registry, NamesAreUniqueAcrossFamilies) {
  std::set<std::string> names;
  for (const KernelEntry& k : Registry::instance().kernels()) {
    EXPECT_TRUE(names.insert(k.name).second) << k.name;
  }
}

TEST(Registry, LookupFindsEveryRegisteredKernel) {
  const Registry& registry = Registry::instance();
  for (const KernelEntry& k : registry.kernels()) {
    const KernelEntry* found = registry.find(k.name);
    ASSERT_NE(found, nullptr) << k.name;
    EXPECT_EQ(found, &k) << k.name;  // same object, not a copy
  }
  EXPECT_EQ(registry.find("no_such_kernel"), nullptr);
  EXPECT_THROW(registry.at("no_such_kernel"), std::out_of_range);
}

TEST(Registry, FamilySubsetsPartitionTheCorpus) {
  const Registry& registry = Registry::instance();
  std::size_t total = 0;
  for (const std::string& f : registry.families()) {
    total += registry.family(f).size();
  }
  EXPECT_EQ(total, registry.size());
  EXPECT_TRUE(registry.family("no_such_family").empty());
}

TEST(Registry, ProblemSizesDerivedFromExpectedBound) {
  // Entries that don't list their problem-size symbols get them derived
  // from the expected bound, minus the fast-memory size S.
  const KernelEntry& gemm = Registry::instance().at("gemm");
  EXPECT_EQ(gemm.problem_sizes, std::vector<std::string>{"N"});
  const KernelEntry& mqa = Registry::instance().at("mqa");
  EXPECT_EQ(mqa.problem_sizes,
            (std::vector<std::string>{"B", "H", "L", "P"}));
  for (const KernelEntry& k : Registry::instance().kernels()) {
    for (const std::string& s : k.problem_sizes) EXPECT_NE(s, "S") << k.name;
  }
}

TEST(Registry, Table2ViewIsTheThreePublishedFamilies) {
  std::vector<const KernelEntry*> rows = table2_kernels();
  ASSERT_EQ(rows.size(), 38u);
  for (const KernelEntry* k : rows) {
    EXPECT_TRUE(k->family == "polybench" || k->family == "neural" ||
                k->family == "various")
        << k->name;
  }
}

}  // namespace
}  // namespace soap::kernels
