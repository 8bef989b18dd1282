#include "src/util/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/util/logging.h"

namespace deepcrawl {

ZipfSampler::ZipfSampler(uint32_t num_items, double exponent)
    : exponent_(exponent) {
  DEEPCRAWL_CHECK_GT(num_items, 0u) << "ZipfSampler needs at least one item";
  DEEPCRAWL_CHECK_GE(exponent, 0.0) << "Zipf exponent must be non-negative";
  cdf_.resize(num_items);
  double total = 0.0;
  for (uint32_t i = 0; i < num_items; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i) + 1.0, exponent);
    cdf_[i] = total;
  }
  for (uint32_t i = 0; i < num_items; ++i) cdf_[i] /= total;
  cdf_.back() = 1.0;  // guard against floating-point shortfall

  // m = the largest power of two <= n: at most 4 bytes per rank next to
  // the CDF's 8, and at most 1 + n / m < 3 expected steps per draw.
  const uint32_t buckets = std::bit_floor(num_items);
  buckets_ = static_cast<double>(buckets);
  guide_.resize(buckets);
  const double width = 1.0 / buckets_;  // exact: m is a power of two
  uint32_t i = 0;
  for (uint32_t j = 0; j < buckets; ++j) {
    const double edge = static_cast<double>(j) * width;  // exact
    while (cdf_[i] < edge) ++i;  // stops by cdf_.back() = 1 > edge
    guide_[j] = i;
  }
}

uint32_t ZipfSampler::RankAt(double u) const {
  // Clamp before the conversion: u >= 1 belongs to the last bucket.
  const double scaled = std::clamp(u * buckets_, 0.0, buckets_ - 1.0);
  uint32_t i = guide_[static_cast<uint32_t>(scaled)];
  const uint32_t last = static_cast<uint32_t>(cdf_.size()) - 1;
  while (i < last && cdf_[i] < u) ++i;
  return i;
}

double ZipfSampler::Pmf(uint32_t i) const {
  DEEPCRAWL_CHECK_LT(i, cdf_.size());
  if (i == 0) return cdf_[0];
  return cdf_[i] - cdf_[i - 1];
}

}  // namespace deepcrawl
