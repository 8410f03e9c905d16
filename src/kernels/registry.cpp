#include "kernels/registry.hpp"

#include <stdexcept>
#include <utility>

#include "frontend/lower.hpp"
#include "kernels/table2.hpp"

namespace soap::kernels {

namespace {

struct Family {
  const char* name;
  std::vector<KernelEntry> (*build)();
};

// The corpus, in enumeration order: the published Table 2 blocks first (so
// their rows keep their indices), then the post-paper families.
constexpr Family kFamilies[] = {
    {"polybench", &polybench_kernels},
    {"neural", &neural_kernels},
    {"various", &various_kernels},
    {"attention", &attention_kernels},
    {"sparse_stencil", &sparse_stencil_kernels},
};

}  // namespace

Program KernelEntry::build() const { return frontend::parse_program(source); }

// Validates every entry (unique corpus-wide name, family tag consistent with
// the family list) and derives problem sizes where an entry leaves them
// unset.
Registry::Registry() {
  for (const Family& fam : kFamilies) {
    families_.emplace_back(fam.name);
    for (KernelEntry& k : fam.build()) {
      if (!k.family.empty() && k.family != fam.name) {
        throw std::logic_error("kernel '" + k.name + "' tagged family '" +
                               k.family + "' but listed under '" + fam.name +
                               "'");
      }
      k.family = fam.name;
      if (k.problem_sizes.empty()) {
        for (const std::string& s : k.expected_bound.symbols()) {
          if (s != "S") k.problem_sizes.push_back(s);
        }
      }
      if (!by_name_.try_emplace(k.name, kernels_.size()).second) {
        throw std::logic_error("kernel registered twice: " + k.name);
      }
      kernels_.push_back(std::move(k));
    }
  }
}

const Registry& Registry::instance() {
  static const Registry registry;
  return registry;
}

std::vector<const KernelEntry*> Registry::family(
    const std::string& family) const {
  std::vector<const KernelEntry*> out;
  for (const KernelEntry& k : kernels_) {
    if (k.family == family) out.push_back(&k);
  }
  return out;
}

const KernelEntry* Registry::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &kernels_[it->second];
}

const KernelEntry& Registry::at(const std::string& name) const {
  const KernelEntry* k = find(name);
  if (k == nullptr) throw std::out_of_range("unknown kernel: " + name);
  return *k;
}

}  // namespace soap::kernels
