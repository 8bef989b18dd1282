// Zipf / power-law sampler.
//
// The paper's §3.2 case study shows that attribute-value graphs of real
// structured Web databases have power-law degree distributions: a few
// "hub" values co-occur with a large share of the records while the
// massive many are rare. The synthetic workload generators therefore draw
// value popularity from Zipf distributions; this header provides an exact
// inverse-CDF sampler (preprocessing O(n), sampling O(1) expected).

#ifndef DEEPCRAWL_UTIL_ZIPF_H_
#define DEEPCRAWL_UTIL_ZIPF_H_

#include <cstdint>
#include <vector>

#include "src/util/random.h"

namespace deepcrawl {

// Exact Zipf(n, s) sampler over ranks {0, ..., n-1}:
// P(rank = i) proportional to 1 / (i+1)^s.
// Precomputes the CDF once. A draw inverts it through a guide table
// (Chen & Asau's index table): the unit interval is cut into m = 2^k
// equal buckets, and guide_[j] is the rank std::lower_bound returns for
// the bucket's left edge j / m. A draw u starts at its bucket's guide
// entry and steps forward to the first cdf_[i] >= u, so it returns
// exactly the lower_bound rank, in at most 1 + n / m expected steps.
// m is a power of two, so u * m, j / m and thus the bucket of u are
// exact: no rounding can put u left of its bucket's edge.
class ZipfSampler {
 public:
  // `num_items` must be positive; `exponent` >= 0 (0 = uniform).
  ZipfSampler(uint32_t num_items, double exponent);

  // Draws a rank in [0, num_items).
  uint32_t Sample(Pcg32& rng) const { return RankAt(rng.NextDouble()); }

  // The rank a draw of `u` in [0, 1) maps to: the first i with
  // cdf[i] >= u, or num_items - 1 when there is none.
  uint32_t RankAt(double u) const;

  // Probability mass of rank i.
  double Pmf(uint32_t i) const;

  double exponent() const { return exponent_; }

 private:
  double exponent_;
  std::vector<double> cdf_;      // cdf_[i] = P(rank <= i)
  std::vector<uint32_t> guide_;  // guide_[j] = first i with cdf_[i] >= j/m
  double buckets_ = 0.0;         // m, as a double
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_ZIPF_H_
