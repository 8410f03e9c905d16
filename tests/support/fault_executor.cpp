#include "fault_executor.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace soap::support {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t FaultInjectingExecutor::decision(std::uint64_t index,
                                               std::uint64_t salt) const {
  return splitmix64(plan_.seed ^ splitmix64(index * 3 + salt));
}

std::function<void()> FaultInjectingExecutor::decorate(
    std::function<void()> task, std::uint64_t index) {
  const bool drop =
      plan_.drop_permille != 0 &&
      decision(index, /*salt=*/1) % 1000 < plan_.drop_permille;
  const bool delay =
      plan_.delay_permille != 0 &&
      decision(index, /*salt=*/2) % 1000 < plan_.delay_permille;
  const std::uint64_t sleep_us =
      delay && plan_.delay_max_us != 0
          ? decision(index, /*salt=*/3) % (plan_.delay_max_us + 1)
          : 0;
  if (drop) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.dropped;
    }
    // The thunk the inner worker runs models a task that throws: the
    // exception must not escape into the worker loop (that would terminate
    // the pool), so the decorator is its own catch boundary.
    return [] {
      try {
        throw FaultInjectedError("injected task fault");
      } catch (const FaultInjectedError&) {
        // Swallowed: to the rest of the system this helper simply died.
      }
    };
  }
  if (delay) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.delayed;
  }
  return [task = std::move(task), sleep_us] {
    if (sleep_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    }
    task();
  };
}

void FaultInjectingExecutor::submit(std::function<void()> task) {
  std::uint64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = index_++;
    ++stats_.submitted;
  }
  std::function<void()> wrapped = decorate(std::move(task), index);
  if (plan_.reorder_window == 0) {
    inner_.submit(std::move(wrapped));
    return;
  }
  // Reorder mode: buffer the submission; once the window is full, release
  // one seeded-random held entry per new arrival (FIFO becomes a bounded
  // shuffle).
  std::function<void()> release;
  {
    std::lock_guard<std::mutex> lock(mu_);
    held_.push_back(std::move(wrapped));
    if (held_.size() <= plan_.reorder_window) return;
    const std::size_t pick =
        static_cast<std::size_t>(decision(index, /*salt=*/4) % held_.size());
    release = std::move(held_[pick]);
    held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(pick));
    if (pick != held_.size()) ++stats_.reordered;
  }
  inner_.submit(std::move(release));
}

void FaultInjectingExecutor::flush() {
  for (;;) {
    std::function<void()> release;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (held_.empty()) return;
      const std::size_t pick = static_cast<std::size_t>(
          decision(index_ + held_.size(), /*salt=*/5) % held_.size());
      release = std::move(held_[pick]);
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    inner_.submit(std::move(release));
  }
}

FaultInjectingExecutor::Stats FaultInjectingExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace soap::support
