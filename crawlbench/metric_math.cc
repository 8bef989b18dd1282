#include "crawlbench/metric_math.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace crawlbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

std::optional<double> SupportedPercentile(std::vector<double> samples,
                                          double p) {
  if (samples.empty() || p <= 0.0 || p >= 1.0) return std::nullopt;
  // Nearest rank: the k-th smallest sample, k = ceil(p * n) (1-based).
  uint64_t n = samples.size();
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyondPercentile) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Share::value() const {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

std::string Share::Describe() const {
  char text[160];
  std::snprintf(text, sizeof(text), "%.6f of %.10g %s", value(), denominator,
                base.c_str());
  return text;
}

}  // namespace crawlbench
