// Order statistics used by every benchmark metric.
//
// Median and quartiles follow Python's statistics module (median averages
// the two middle values; Quartiles is statistics.quantiles(v, n=4) with its
// default "exclusive" method), so figures the driver prints agree with the
// spread check in perfbench/spread.py. Latency percentiles use the
// nearest-rank definition: the smallest sample with at least p% of the
// samples at or below it, so a reported p99 is always a real observation.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// statistics.quantiles(v, n=4, method="exclusive"): {q1, q2, q3}.
inline std::array<double, 3> Quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                  v[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

/// Nearest-rank percentile, p in (0, 100].
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0 && p <= 100)) throw std::invalid_argument("p out of (0,100]");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Time at which a monotone-rising curve first reaches `target`, linearly
/// interpolated between the two points that bracket the crossing. `t` and
/// `y` are cumulative time and value after each step, with (0, y0) as the
/// implicit start. Returns a negative number when the curve never reaches
/// the target.
inline double CrossingTime(double y0, const std::vector<double>& t,
                           const std::vector<double>& y, double target) {
  double prev_t = 0, prev_y = y0;
  if (prev_y >= target) return 0;
  for (size_t i = 0; i < t.size() && i < y.size(); ++i) {
    if (y[i] >= target) {
      const double frac = (target - prev_y) / (y[i] - prev_y);
      return prev_t + frac * (t[i] - prev_t);
    }
    prev_t = t[i];
    prev_y = y[i];
  }
  return -1;
}

}  // namespace perfbench
