#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 100.0)) {
    throw std::invalid_argument("percentile outside [0, 100]");
  }
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], n, n - rank};
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0).value;
}

}  // namespace perfbench
