#include "tracer.hpp"

#include <cstdio>
#include <memory>

#include "support/cancel.hpp"

namespace perfbench {

int Tracer::begin(const std::string& name, const std::string& owner) {
  const std::int64_t start = now_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start_ns = start;
  s.parent = open_.empty() ? -1 : open_.back();
  s.owner = owner;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  const std::int64_t end = now_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, const std::string& owner,
                    int tid) {
  Span s;
  s.name = name;
  s.start_ns = now_ns(start);
  s.end_ns = now_ns(end);
  s.owner = owner;
  s.tid = tid;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (double d : durations_ms(name)) total += d;
  return total;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"owner\":\"%s\"}}\n",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 json_escape(s.owner).c_str());
  }
  std::fputs("]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

void CountingExecutor::sample_live_nodes() {
  const std::size_t live = soap::support::live_node_count();
  std::size_t peak = peak_.load();
  while (live > peak && !peak_.compare_exchange_weak(peak, live)) {
  }
}

void CountingExecutor::submit(std::function<void()> task) {
  const Clock::time_point submitted = Clock::now();
  tasks_.fetch_add(1);
  inner_.submit([this, submitted, task = std::move(task)]() {
    thread_local int tid = 0;
    if (tid == 0) tid = ++next_tid_;
    const Clock::time_point start = Clock::now();
    sample_live_nodes();
    task();
    const Clock::time_point end = Clock::now();
    sample_live_nodes();
    wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - submitted)
            .count());
    busy_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    tracer_.record("support.task", start, end, "", tid);
  });
}

}  // namespace perfbench
