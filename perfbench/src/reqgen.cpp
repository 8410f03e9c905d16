#include "reqgen.hpp"

#include <cctype>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool miss_eligible(const soap::kernels::KernelEntry& entry) {
  return !entry.source.empty() && !entry.options.use_cold_bound &&
         entry.options.optimizer ==
             soap::bounds::opt::BackendKind::kNelderMead;
}

std::string rename_arrays(const std::string& source,
                          const std::string& prefix) {
  std::string out;
  out.reserve(source.size() + 64);
  std::size_t i = 0;
  while (i < source.size()) {
    const unsigned char c = static_cast<unsigned char>(source[i]);
    if (std::isalpha(c) || c == '_') {
      std::size_t j = i;
      while (j < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[j])) ||
              source[j] == '_')) {
        ++j;
      }
      if (j < source.size() && source[j] == '[') out += prefix;
      out.append(source, i, j - i);
      i = j;
    } else {
      out += source[i++];
    }
  }
  return out;
}

namespace {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::string> renderings(const soap::kernels::KernelEntry& entry) {
  return {entry.expected_bound.str(),
          soap::sym::expand(entry.expected_bound).str()};
}

Request kernel_request(const soap::kernels::KernelEntry& entry,
                       const std::string& id) {
  Request r;
  r.id = id;
  r.text = "kernel " + entry.name + " id=" + id + "\n";
  r.kernel = entry.name;
  r.expected = renderings(entry);
  return r;
}

Request analyze_request(const soap::kernels::KernelEntry& entry,
                        const std::string& id, const std::string& prefix) {
  Request r;
  r.id = id;
  r.body = rename_arrays(entry.source, prefix);
  if (!r.body.empty() && r.body.back() != '\n') r.body += '\n';
  r.text = "analyze id=" + id + " max-subgraph-size=" +
           std::to_string(entry.options.max_subgraph_size) +
           " max-subgraphs=" + std::to_string(entry.options.max_subgraphs) +
           "\n" + r.body + "end\n";
  r.kernel = entry.name;
  r.expected = renderings(entry);
  return r;
}

/// A request before it has an id: a kernel by name (empty prefix) or its
/// DSL body with arrays renamed by `prefix`.
struct Item {
  const soap::kernels::KernelEntry* entry = nullptr;
  std::string prefix;
  bool miss = false;
};

Request make_request(const Item& item, const std::string& id) {
  Request r = item.prefix.empty()
                  ? kernel_request(*item.entry, id)
                  : analyze_request(*item.entry, id, item.prefix);
  r.miss = item.miss;
  return r;
}

}  // namespace

Stream generate_stream(std::uint64_t seed, std::size_t cycles) {
  const auto& all = soap::kernels::Registry::instance().kernels();
  std::vector<const soap::kernels::KernelEntry*> pool;
  for (const auto& entry : all) {
    if (miss_eligible(entry)) pool.push_back(&entry);
  }
  Rng rng(seed ^ 0x5eedf00dULL);
  const std::string tag = hex(seed);

  // Hot set: every kernel by name and every miss-pool body under one
  // seeded prefix, so the hit mix is the same for every seed.
  std::vector<Item> hot;
  for (const auto& entry : all) hot.push_back({&entry, "", false});
  for (const auto* entry : pool) hot.push_back({entry, "h" + tag + "_", false});

  Stream stream;
  for (const Item& item : hot) {
    Request r =
        make_request(item, "p" + std::to_string(stream.prime.size() + 1));
    r.miss = true;  // derived cold while priming
    stream.prime.push_back(std::move(r));
  }

  stream.cycle_length = pool.size() * (1 + kHitsPerMiss);
  std::size_t misses_made = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<Item> cycle;
    for (const auto* entry : pool) {
      cycle.push_back(
          {entry, "m" + tag + "x" + std::to_string(++misses_made) + "_", true});
    }
    for (std::size_t h = 0; h < pool.size() * kHitsPerMiss; ++h) {
      cycle.push_back(hot[rng.below(hot.size())]);
    }
    shuffle(cycle, rng);
    for (const Item& item : cycle) {
      Request r =
          make_request(item, "q" + std::to_string(stream.timed.size() + 1));
      r.cycle = c;
      stream.timed.push_back(std::move(r));
    }
  }
  return stream;
}

}  // namespace perfbench
