#include "cachesim/cache.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace soap::cachesim {

namespace {

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Dense ids for a trace's addresses, so both simulators run on flat arrays.
/// When every address is below the trace length (always so for TraceBuilder
/// traces, whose addresses are first-touch dense ids) the id is the address
/// itself; otherwise it is the address's rank among the distinct addresses,
/// so sparse caller traces need memory linear in the trace.  Both maps
/// preserve address order, which Belady's tie-break depends on.
class DenseIds {
 public:
  explicit DenseIds(const std::vector<schedule::Access>& trace)
      : trace_(trace) {
    std::uint64_t max = 0;
    for (const schedule::Access& a : trace) max = std::max(max, a.address);
    if (trace.empty() || max < trace.size()) {
      universe_ = trace.empty() ? 0 : static_cast<std::size_t>(max) + 1;
      return;
    }
    std::vector<std::uint64_t> sorted;
    sorted.reserve(trace.size());
    for (const schedule::Access& a : trace) sorted.push_back(a.address);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    rank_.reserve(trace.size());
    for (const schedule::Access& a : trace) {
      rank_.push_back(static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), a.address) -
          sorted.begin()));
    }
    universe_ = sorted.size();
  }

  [[nodiscard]] std::size_t universe() const { return universe_; }
  [[nodiscard]] std::size_t operator[](std::size_t i) const {
    return rank_.empty() ? static_cast<std::size_t>(trace_[i].address)
                         : rank_[i];
  }

 private:
  const std::vector<schedule::Access>& trace_;
  std::vector<std::size_t> rank_;  ///< empty: ids are the addresses
  std::size_t universe_ = 0;
};

}  // namespace

SimResult simulate_lru(const std::vector<schedule::Access>& trace,
                       std::size_t S) {
  // A zero-capacity cache is modeled as capacity 1 (the paper's machine
  // model needs at least one resident word to compute); S = 0 would
  // otherwise evict from an empty LRU list on the first access.
  S = std::max<std::size_t>(S, 1);
  SimResult r;
  const DenseIds id(trace);
  // Intrusive recency list over ids: head = most recent, tail = victim.
  std::vector<std::size_t> prev(id.universe(), kNone);
  std::vector<std::size_t> next(id.universe(), kNone);
  std::vector<std::uint8_t> present(id.universe(), 0);
  std::vector<std::uint8_t> dirty(id.universe(), 0);
  std::size_t head = kNone;
  std::size_t tail = kNone;
  std::size_t cached = 0;
  auto unlink = [&](std::size_t a) {
    (prev[a] == kNone ? head : next[prev[a]]) = next[a];
    (next[a] == kNone ? tail : prev[next[a]]) = prev[a];
  };
  auto push_front = [&](std::size_t a) {
    prev[a] = kNone;
    next[a] = head;
    (head == kNone ? tail : prev[head]) = a;
    head = a;
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t a = id[i];
    const bool write = trace[i].write;
    if (present[a]) {
      if (head != a) {
        unlink(a);
        push_front(a);
      }
      dirty[a] |= static_cast<std::uint8_t>(write);
      continue;
    }
    // Miss.  A write to a line not present allocates without a load
    // (the statement fully overwrites the element).
    if (!write) ++r.loads;
    if (cached >= S) {
      const std::size_t victim = tail;
      unlink(victim);
      if (dirty[victim]) ++r.stores;
      present[victim] = 0;
      --cached;
    }
    push_front(a);
    present[a] = 1;
    dirty[a] = static_cast<std::uint8_t>(write);
    ++cached;
  }
  for (std::size_t a = head; a != kNone; a = next[a]) {
    if (dirty[a]) ++r.stores;
  }
  return r;
}

SimResult simulate_belady(const std::vector<schedule::Access>& trace,
                          std::size_t S) {
  S = std::max<std::size_t>(S, 1);  // same capacity-1 floor as LRU
  SimResult r;
  const DenseIds id(trace);
  // next_use[i]: the position of the next access to trace[i]'s address
  // after i, from one backward pass.
  std::vector<std::size_t> next_use(trace.size());
  std::vector<std::size_t> slot(id.universe(), kNever);
  for (std::size_t i = trace.size(); i-- > 0;) {
    const std::size_t a = id[i];
    next_use[i] = slot[a];
    slot[a] = i;
  }
  std::fill(slot.begin(), slot.end(), kNone);  // now: heap position per id

  // Resident lines in a max-heap keyed by (next use, id), with each line's
  // position tracked so a hit updates its key in place.  Next uses of
  // resident lines are distinct positions except kNever, which the id
  // breaks (furthest-and-highest address first), so the victim — the heap
  // top — is unique.
  struct Line {
    std::size_t when;
    std::size_t id;
  };
  std::vector<Line> heap;
  heap.reserve(std::min(S, id.universe()));
  std::vector<std::uint8_t> dirty(id.universe(), 0);
  auto above = [](const Line& x, const Line& y) {
    return x.when != y.when ? x.when > y.when : x.id > y.id;
  };
  auto place = [&](std::size_t p, const Line& line) {
    heap[p] = line;
    slot[line.id] = p;
  };
  auto sift_up = [&](std::size_t p) {
    const Line line = heap[p];
    while (p > 0 && above(line, heap[(p - 1) / 2])) {
      place(p, heap[(p - 1) / 2]);
      p = (p - 1) / 2;
    }
    place(p, line);
  };
  auto sift_down = [&](std::size_t p) {
    const Line line = heap[p];
    const std::size_t n = heap.size();
    while (true) {
      std::size_t c = 2 * p + 1;
      if (c >= n) break;
      if (c + 1 < n && above(heap[c + 1], heap[c])) ++c;
      if (!above(heap[c], line)) break;
      place(p, heap[c]);
      p = c;
    }
    place(p, line);
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t a = id[i];
    const bool write = trace[i].write;
    const Line line{next_use[i], a};
    if (slot[a] != kNone) {
      // A hit moves the line's next use later: its key only grows.
      dirty[a] |= static_cast<std::uint8_t>(write);
      heap[slot[a]] = line;
      sift_up(slot[a]);
      continue;
    }
    if (!write) ++r.loads;
    dirty[a] = static_cast<std::uint8_t>(write);
    if (heap.size() >= S) {
      // Evict the line used furthest in the future.
      const std::size_t victim = heap.front().id;
      if (dirty[victim]) ++r.stores;
      slot[victim] = kNone;
      heap.front() = line;
      sift_down(0);
    } else {
      heap.push_back(line);
      sift_up(heap.size() - 1);
    }
  }
  for (const Line& line : heap) {
    if (dirty[line.id]) ++r.stores;
  }
  return r;
}

}  // namespace soap::cachesim
