// Self-test of the benchmark's own helpers: the percentile reporting rule
// and the seeded serve_mixed request stream.  Exits non-zero on failure.
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "reqgen.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// Concatenated protocol text of a request list: what analyzed receives.
std::string stream_bytes(const std::vector<perfbench::Request>& requests) {
  std::string out;
  for (const perfbench::Request& r : requests) out += r.text;
  return out;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  using namespace perfbench;
  check(median({3, 1, 2}) == 2, "odd median");
  check(median({4, 1, 3, 2}) == 2.5, "even median");
  check(percentile(one_to(100), 90) == 90, "p90 of 1..100");
  check(percentile(one_to(100), 99) == 99, "p99 of 1..100");
  check(percentile(one_to(10), 50) == 5, "nearest-rank p50 of 1..10");
  check(percentile({7}, 99) == 7, "single sample");
  check(std::fabs(geomean({1, 10, 100}) - 10) < 1e-12, "geometric mean");

  // The tail percentile keeps at least ten samples beyond it.
  Summary s = summarize(one_to(1000));
  check(s.tail_p && *s.tail_p == 99.0 && s.tail_value == 990,
        "n=1000 reports p99");
  s = summarize(one_to(100));
  check(s.tail_p && *s.tail_p == 90.0 && s.tail_value == 90,
        "n=100 reports p90");
  s = summarize(one_to(43));
  check(s.tail_p && *s.tail_p == 75.0, "n=43 reports p75");
  s = summarize(one_to(19));
  check(!s.tail_p && s.median == 10 && s.count == 19,
        "n=19 has no tail percentile");
  for (int n : {20, 43, 100, 1000, 12345}) {
    const Summary t = summarize(one_to(n));
    check(t.tail_p.has_value() &&
              samples_beyond(static_cast<std::size_t>(n), *t.tail_p) >= 10,
          "tail rule holds at n=" + std::to_string(n));
  }
}

void test_stream() {
  using namespace perfbench;
  const Stream a = generate_stream(7, 3);
  const Stream b = generate_stream(7, 3);
  const Stream c = generate_stream(8, 3);
  check(stream_bytes(a.prime) + stream_bytes(a.timed) ==
            stream_bytes(b.prime) + stream_bytes(b.timed),
        "same seed gives a byte-identical stream");
  check(stream_bytes(a.timed) != stream_bytes(c.timed),
        "different seeds give different streams");
  check(a.timed.size() == 3 * a.cycle_length, "three full cycles");

  std::size_t misses = 0;
  for (const Request& r : a.timed) misses += r.miss ? 1 : 0;
  const double share = 100.0 * static_cast<double>(misses) /
                       static_cast<double>(a.timed.size());
  check(std::fabs(share - 5.0) <= 1.0,
        "miss share " + std::to_string(share) + "% within 1 point of 5%");

  // Every miss has a body no other request carries (a fresh digest), and
  // every request maps back to a registry kernel's expected bound.
  std::vector<std::string> bodies;
  const auto& registry = soap::kernels::Registry::instance();
  for (const Request& r : a.timed) {
    const auto* entry = registry.find(r.kernel);
    check(entry != nullptr && r.expected.front() == entry->expected_bound.str(),
          r.id + " carries its kernel's expected bound");
    if (r.miss) {
      check(!r.body.empty() && entry != nullptr && miss_eligible(*entry),
            r.id + " is a miss-pool analyze body");
      bodies.push_back(r.body);
    }
  }
  std::sort(bodies.begin(), bodies.end());
  check(std::adjacent_find(bodies.begin(), bodies.end()) == bodies.end(),
        "miss bodies are unique");
  check(rename_arrays("C[i,j] += A[i,k] * alpha", "z_") ==
            "z_C[i,j] += z_A[i,k] * alpha",
        "rename_arrays renames array references only");
}

}  // namespace

int main() {
  test_percentiles();
  test_stream();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
