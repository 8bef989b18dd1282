// Summary statistics of the benchmark's samples.

#ifndef CRAWLBENCH_METRIC_MATH_H_
#define CRAWLBENCH_METRIC_MATH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace crawlbench {

// Samples that must lie beyond a reported percentile.
inline constexpr uint64_t kMinSamplesBeyondPercentile = 10;

// Median (mean of the two middle samples for an even count); 0 for none.
double Median(std::vector<double> samples);

// The nearest-rank `p`-quantile (0 < p < 1) of `samples`, or nullopt when
// fewer than kMinSamplesBeyondPercentile samples lie beyond it: a p99 needs
// at least 1000 samples, a p50 at least 20.
std::optional<double> SupportedPercentile(std::vector<double> samples,
                                          double p);

// A ratio that names its base: "0.9007 of 110906 rounds".
struct Share {
  double numerator = 0.0;
  double denominator = 0.0;
  // What the denominator counts, e.g. "rounds"; never empty.
  std::string base;

  // numerator / denominator, or 0 when the base is empty of samples.
  double value() const;
  std::string Describe() const;
};

}  // namespace crawlbench

#endif  // CRAWLBENCH_METRIC_MATH_H_
