#include "sample_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::array<double, 3> quartiles(std::vector<double> samples) {
  const long n = static_cast<long>(samples.size());
  if (n < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(samples.begin(), samples.end());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (samples[j - 1] * static_cast<double>(4 - delta) +
                  samples[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return out;
}

}  // namespace perfbench
