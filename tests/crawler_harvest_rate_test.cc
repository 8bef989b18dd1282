// Tests of the shared windowed harvest-rate estimator (HarvestRateEwma)
// used by both the CrawlFleet scheduler and the AdaptiveSelector's
// phase-switch rule. A resumed fleet rebuilds the estimator by replaying
// its turns, so its update order is part of the resume contract.

#include "src/crawler/harvest_rate.h"

#include <gtest/gtest.h>

namespace deepcrawl {
namespace {

TEST(HarvestRateEwmaTest, FirstObservationLatches) {
  HarvestRateEwma ewma;
  EXPECT_FALSE(ewma.seen);
  ewma.Observe(0.3, 4.0, 0.25);
  EXPECT_TRUE(ewma.seen);
  // No blend against the zero prior: the first sample IS the estimate.
  EXPECT_DOUBLE_EQ(ewma.hr, 4.0);
  EXPECT_DOUBLE_EQ(ewma.err, 0.25);
}

TEST(HarvestRateEwmaTest, LaterObservationsBlendWithAlpha) {
  HarvestRateEwma ewma;
  ewma.Observe(0.5, 10.0, 0.0);
  ewma.Observe(0.5, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(ewma.hr, 5.0);
  EXPECT_DOUBLE_EQ(ewma.err, 0.5);
  ewma.Observe(0.5, 5.0, 0.5);
  EXPECT_DOUBLE_EQ(ewma.hr, 5.0);
  EXPECT_DOUBLE_EQ(ewma.err, 0.5);
}

TEST(HarvestRateEwmaTest, SmallAlphaForgetsSlowly) {
  HarvestRateEwma fast, slow;
  fast.Observe(0.9, 10.0, 0.0);
  slow.Observe(0.1, 10.0, 0.0);
  fast.Observe(0.9, 0.0, 0.0);
  slow.Observe(0.1, 0.0, 0.0);
  // One zero sample: the high-alpha estimator collapses, the low-alpha
  // one barely moves.
  EXPECT_LT(fast.hr, 2.0);
  EXPECT_GT(slow.hr, 8.0);
}

TEST(HarvestRateEwmaTest, ScoreAppliesFloorToUnprovenSources) {
  HarvestRateEwma ewma;
  ewma.Observe(0.3, 0.1, 0.0);
  // The floor keeps a cold source's score from rounding to zero, so the
  // scheduler keeps probing it.
  EXPECT_DOUBLE_EQ(ewma.Score(0.5), 0.5);
  // Above the floor the real rate wins.
  ewma.Observe(1.0, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(ewma.Score(0.5), 3.0);
}

TEST(HarvestRateEwmaTest, ScoreDiscountsByErrorRate) {
  HarvestRateEwma ewma;
  ewma.Observe(1.0, 4.0, 0.25);
  EXPECT_DOUBLE_EQ(ewma.Score(0.0), 3.0);  // 4 * (1 - 0.25)
  // An error rate at or past 1 zeroes the score, never negates it.
  ewma.Observe(1.0, 4.0, 1.5);
  EXPECT_DOUBLE_EQ(ewma.Score(0.0), 0.0);
}

TEST(HarvestRateEwmaTest, DefaultConstructedScoresAtFloor) {
  HarvestRateEwma ewma;
  EXPECT_DOUBLE_EQ(ewma.Score(0.75), 0.75);
}

}  // namespace
}  // namespace deepcrawl
