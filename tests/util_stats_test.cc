#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace deepcrawl {
namespace {

TEST(LinearFitTest, ExactLineIsRecovered) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 * xi - 2.0);
  LinearFit fit = FitLeastSquares(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFitTest, FlatDataHasZeroSlope) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {5, 5, 5, 5};
  LinearFit fit = FitLeastSquares(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-12);
  EXPECT_EQ(fit.r_squared, 1.0);
}

TEST(LinearFitTest, NoisyDataHasImperfectR2) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6};
  std::vector<double> y = {1.0, 2.5, 2.4, 4.3, 4.6, 6.2};
  LinearFit fit = FitLeastSquares(x, y);
  EXPECT_GT(fit.slope, 0.8);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.9);
}

TEST(StudentTTest, CdfIsSymmetricAroundZero) {
  for (double df : {1.0, 5.0, 14.0, 100.0}) {
    EXPECT_NEAR(StudentTCdf(0.0, df), 0.5, 1e-10);
    for (double t : {0.5, 1.0, 2.5}) {
      EXPECT_NEAR(StudentTCdf(t, df) + StudentTCdf(-t, df), 1.0, 1e-9)
          << "df=" << df << " t=" << t;
    }
  }
}

TEST(StudentTTest, KnownQuantiles) {
  // Classic t-table values.
  EXPECT_NEAR(StudentTQuantile(0.95, 14), 1.761, 2e-3);   // one-sided 95%
  EXPECT_NEAR(StudentTQuantile(0.90, 14), 1.345, 2e-3);   // one-sided 90%
  EXPECT_NEAR(StudentTQuantile(0.975, 10), 2.228, 2e-3);  // two-sided 95%
  EXPECT_NEAR(StudentTQuantile(0.975, 1), 12.706, 2e-2);
  // Large df approaches the normal quantile 1.6449.
  EXPECT_NEAR(StudentTQuantile(0.95, 10000), 1.6449, 5e-3);
}

TEST(StudentTTest, QuantileInvertsCdf) {
  for (double df : {3.0, 14.0, 29.0}) {
    for (double p : {0.1, 0.25, 0.5, 0.8, 0.9, 0.99}) {
      double q = StudentTQuantile(p, df);
      EXPECT_NEAR(StudentTCdf(q, df), p, 1e-8) << "df=" << df << " p=" << p;
    }
  }
}

TEST(OneSampleTTestTest, ConfidenceIntervalCoversMeanOfConstantish) {
  // 15 estimates (like the paper's C(6,2) overlap estimates).
  std::vector<double> samples = {35000, 36800, 34100, 36200, 35900,
                                 34800, 35500, 36500, 33900, 35200,
                                 36100, 34600, 35800, 35300, 34900};
  TTestResult result = OneSampleTTest(samples, 0.90);
  EXPECT_EQ(result.n, 15u);
  EXPECT_EQ(result.df, 14.0);
  EXPECT_GT(result.mean, 34000);
  EXPECT_LT(result.mean, 37000);
  EXPECT_LT(result.ci_lower, result.mean);
  EXPECT_GT(result.ci_upper, result.mean);
  // One-sided upper bound sits between the mean and the two-sided upper.
  EXPECT_GT(result.one_sided_upper, result.mean);
  EXPECT_LT(result.one_sided_upper, result.ci_upper);
}

TEST(OneSampleTTestTest, WiderConfidenceGivesWiderInterval) {
  std::vector<double> samples = {1, 2, 3, 4, 5, 6, 7, 8};
  TTestResult narrow = OneSampleTTest(samples, 0.80);
  TTestResult wide = OneSampleTTest(samples, 0.99);
  EXPECT_LT(narrow.ci_upper - narrow.ci_lower,
            wide.ci_upper - wide.ci_lower);
}

}  // namespace
}  // namespace deepcrawl
