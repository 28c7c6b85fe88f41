#pragma once

// Sample statistics used by every workload: nearest-rank percentiles with
// the "ten samples beyond the tail" rule, medians, and ratios that carry
// their base.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a tail percentile needs beyond it before a run may report it.
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of percentile `q` (0 < q <= 1) among n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// Samples strictly above the nearest-rank percentile `q`.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// Smallest sample count for which percentile `q` has kTailSamples beyond.
inline std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < kTailSamples) ++n;
  return n;
}

/// Nearest-rank percentile of `v` (0 when empty).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Median as the midpoint of the two middle samples (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A ratio that keeps its base: `hits` of `base` attempts.
struct Ratio {
  std::uint64_t hits = 0;
  std::uint64_t base = 0;
  /// hits / base; 0 when nothing was attempted.
  double value() const {
    return base == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(base);
  }
};

}  // namespace perfbench
