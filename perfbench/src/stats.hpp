// Percentile helpers shared by every workload.
//
// Reporting rule: a timing is printed as its median, the highest
// percentile that still has at least ten samples beyond it, and the sample
// count.  Percentiles use the nearest-rank definition on the sorted
// samples; the median of an even count is the mean of the middle pair.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.  `sorted` must be ascending and non-empty.
inline double nearest_rank(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly above the nearest-rank position of percentile p.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
      1, n == 0 ? 1 : n);
  return n >= rank ? n - rank : 0;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Geometric mean of positive samples; 0 when empty.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Percentile p of unsorted samples (nearest rank); 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return nearest_rank(v, p);
}

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest of the standard percentiles with >= 10 samples beyond it;
  /// empty when there are too few samples for any tail percentile.
  std::optional<double> tail_p;
  double tail_value = 0.0;
};

inline Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.median = median(sorted);
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(sorted.size(), p) >= 10) {
      s.tail_p = p;
      s.tail_value = nearest_rank(sorted, p);
      break;
    }
  }
  return s;
}

/// One printed line: "timing NAME median=... pXX=... n=... UNIT".
inline std::string format_summary(const std::string& name,
                                  const std::vector<double>& samples,
                                  const std::string& unit) {
  const Summary s = summarize(samples);
  char buf[256];
  if (s.tail_p) {
    std::snprintf(buf, sizeof(buf), "timing %s median=%.6g p%g=%.6g n=%zu %s",
                  name.c_str(), s.median, *s.tail_p, s.tail_value, s.count,
                  unit.c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "timing %s median=%.6g (no tail percentile: n=%zu < 20) %s",
                  name.c_str(), s.median, s.count, unit.c_str());
  }
  return buf;
}

}  // namespace perfbench
