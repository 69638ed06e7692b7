// Order statistics for host-time samples, reported with their base.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile together with the sample count it was taken from and
/// how many samples lie strictly above its rank, so a reader can tell a
/// p99 over 10 samples (the maximum) from one over 10,000.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile: the ceil(q/100 * n)-th smallest sample, rank
/// clamped to [1, n]; `beyond` is n - rank. Throws std::invalid_argument
/// on an empty sample or q outside [0, 100].
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);

/// percentile(samples, 50).value.
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
