#include "src/util/random.h"

#include <gtest/gtest.h>

#include <vector>

namespace deepcrawl {
namespace {

TEST(Pcg32Test, DeterministicForFixedSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextU32() != b.NextU32()) ++differing;
  }
  EXPECT_GT(differing, 24);
}

TEST(Pcg32Test, DifferentStreamsDiffer) {
  Pcg32 a(1, 10), b(1, 11);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextU32() != b.NextU32()) ++differing;
  }
  EXPECT_GT(differing, 24);
}

TEST(Pcg32Test, NextBoundedStaysInBounds) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(Pcg32Test, NextBoundedIsRoughlyUniform) {
  Pcg32 rng(99);
  constexpr uint32_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (uint32_t b = 0; b < kBuckets; ++b) {
    // Expected 10000 per bucket; allow 10% slack.
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets / 10.0);
  }
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Pcg32Test, NextBoolMatchesProbability) {
  Pcg32 rng(21);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace deepcrawl
