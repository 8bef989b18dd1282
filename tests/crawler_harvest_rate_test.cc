// Tests of the windowed harvest-rate estimator (HarvestRateEwma) behind
// the AdaptiveSelector's phase-switch rule. A resumed selector rebuilds
// the estimator by replaying its waves, so its update order is part of
// the resume contract.

#include "src/crawler/harvest_rate.h"

#include <gtest/gtest.h>

namespace deepcrawl {
namespace {

TEST(HarvestRateEwmaTest, FirstObservationLatches) {
  HarvestRateEwma ewma;
  EXPECT_FALSE(ewma.seen);
  ewma.Observe(0.3, 4.0);
  EXPECT_TRUE(ewma.seen);
  // No blend against the zero prior: the first sample IS the estimate.
  EXPECT_DOUBLE_EQ(ewma.hr, 4.0);
}

TEST(HarvestRateEwmaTest, LaterObservationsBlendWithAlpha) {
  HarvestRateEwma ewma;
  ewma.Observe(0.5, 10.0);
  ewma.Observe(0.5, 0.0);
  EXPECT_DOUBLE_EQ(ewma.hr, 5.0);
  ewma.Observe(0.5, 5.0);
  EXPECT_DOUBLE_EQ(ewma.hr, 5.0);
}

TEST(HarvestRateEwmaTest, SmallAlphaForgetsSlowly) {
  HarvestRateEwma fast, slow;
  fast.Observe(0.9, 10.0);
  slow.Observe(0.1, 10.0);
  fast.Observe(0.9, 0.0);
  slow.Observe(0.1, 0.0);
  // One zero sample: the high-alpha estimator collapses, the low-alpha
  // one barely moves.
  EXPECT_LT(fast.hr, 2.0);
  EXPECT_GT(slow.hr, 8.0);
}

}  // namespace
}  // namespace deepcrawl
