#include "src/util/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "src/util/random.h"

namespace deepcrawl {
namespace {

TEST(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (uint32_t i = 0; i < 100; ++i) total += zipf.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, PmfIsMonotoneDecreasing) {
  ZipfSampler zipf(50, 1.2);
  for (uint32_t i = 1; i < 50; ++i) {
    EXPECT_GE(zipf.Pmf(i - 1), zipf.Pmf(i));
  }
}

TEST(ZipfSamplerTest, ExponentZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(zipf.Pmf(i), 0.1, 1e-9);
  }
}

TEST(ZipfSamplerTest, PmfRatioMatchesExponent) {
  // P(0) / P(1) should equal 2^s for Zipf(s).
  ZipfSampler zipf(1000, 1.5);
  EXPECT_NEAR(zipf.Pmf(0) / zipf.Pmf(1), std::pow(2.0, 1.5), 1e-9);
}

TEST(ZipfSamplerTest, SamplingMatchesPmf) {
  ZipfSampler zipf(20, 1.0);
  Pcg32 rng(42);
  constexpr int kDraws = 200000;
  std::vector<int> counts(20, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (uint32_t i = 0; i < 20; ++i) {
    double expected = zipf.Pmf(i) * kDraws;
    EXPECT_NEAR(counts[i], expected, 5 * std::sqrt(expected) + 10)
        << "rank " << i;
  }
}

TEST(ZipfSamplerTest, SingleItemAlwaysRankZero) {
  ZipfSampler zipf(1, 1.0);
  Pcg32 rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

// The guide table must return exactly the rank std::lower_bound over the
// CDF returns, at every CDF entry and one ulp to either side of it,
// where an off-by-one bucket would show.
class ZipfGuideTableTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>> {};

uint32_t LowerBoundRank(const std::vector<double>& cdf, double u) {
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<uint32_t>(it - cdf.begin());
}

TEST_P(ZipfGuideTableTest, RankAtEqualsLowerBound) {
  auto [n, s] = GetParam();
  ZipfSampler zipf(n, s);
  // The reference CDF is computed as the constructor computes it; Pmf()
  // confirms both hold the same doubles.
  std::vector<double> cdf(n);
  double total = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i) + 1.0, s);
    cdf[i] = total;
  }
  for (uint32_t i = 0; i < n; ++i) cdf[i] /= total;
  cdf.back() = 1.0;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(zipf.Pmf(i), i == 0 ? cdf[0] : cdf[i] - cdf[i - 1]) << i;
  }

  std::vector<double> probes = {0.0, std::nextafter(1.0, 0.0)};
  for (double c : cdf) {
    probes.push_back(c);
    probes.push_back(std::nextafter(c, 0.0));
    probes.push_back(std::nextafter(c, 2.0));
  }
  for (double u : probes) {
    ASSERT_EQ(zipf.RankAt(u), LowerBoundRank(cdf, u))
        << "n=" << n << " s=" << s << " u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfGuideTableTest,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 1000u, 150000u),
                       ::testing::Values(0.0, 0.8, 0.9, 1.0, 1.2)));

}  // namespace
}  // namespace deepcrawl
