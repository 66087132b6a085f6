// Sample statistics the benchmark reports. Kept free of the simulator so
// the benchmark's tests can pin down each rule on synthetic data.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// 0 for an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, its value is set by a handful of outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// One percentile reading under the sample-count rule.
struct Percentile {
  double requested = 0;  ///< the percentile asked for, as a fraction
  double used = 0;       ///< the highest fraction <= requested the rule allows
  std::uint64_t value = 0;
  std::size_t samples = 0;

  /// True when the requested percentile itself met the rule.
  [[nodiscard]] bool exact() const { return used == requested; }
};

/// Nearest-rank percentile `p` of `samples` (sorts in place). Rank r =
/// ceil(p * n) leaves n - r samples beyond it; when that is below
/// kMinSamplesBeyond the reading falls back to the highest rank that
/// still leaves kMinSamplesBeyond beyond it, and `used` says which
/// percentile that is. With n <= kMinSamplesBeyond no percentile
/// qualifies: `used` is 0 and `value` the smallest sample.
inline Percentile tail_percentile(std::vector<std::uint64_t>& samples,
                                  double p) {
  Percentile out;
  out.requested = p;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::max<std::size_t>(rank, 1);
  if (n - rank >= kMinSamplesBeyond) {
    out.used = p;
  } else if (n > kMinSamplesBeyond) {
    rank = n - kMinSamplesBeyond;
    out.used = static_cast<double>(rank) / static_cast<double>(n);
  } else {
    rank = 1;
    out.used = 0;
  }
  out.value = samples[rank - 1];
  return out;
}

/// SLO rate search over an ascending ladder of offered rates: probes the
/// rungs from the bottom and stops at the first one that fails, so the
/// answer never lies above a failing rate even if a higher rung would
/// pass by chance. Returns the last passing rung, or 0 when the lowest
/// rung fails.
template <typename Passes>
double slo_search(std::span<const double> ladder, Passes&& passes) {
  double best = 0;
  for (const double rate : ladder) {
    if (!passes(rate)) break;
    best = rate;
  }
  return best;
}

}  // namespace perfbench
