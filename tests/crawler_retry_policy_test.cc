// Tests of the retry/backoff policy: retryability classification, the
// per-drain attempt budget, capped exponential backoff (pinned by a golden
// table), deterministic jitter, and the retry-after floor.

#include "src/crawler/retry_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace deepcrawl {
namespace {

TEST(RetryPolicyTest, TransientCodesAreRetryable) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::Unavailable("503")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::DeadlineExceeded("timeout")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::ResourceExhausted("429")));
}

TEST(RetryPolicyTest, PermanentCodesAreNotRetryable) {
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::OK()));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::OutOfRange("past last page")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::InvalidArgument("bad")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::NotFound("gone")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(Status::Internal("bug")));
}

TEST(RetryPolicyTest, ShouldRetryStopsAtMaxAttempts) {
  RetryPolicyConfig config;
  config.max_attempts = 3;
  RetryPolicy policy(config);
  Status transient = Status::Unavailable("503");

  EXPECT_TRUE(policy.ShouldRetry(transient, 1));
  EXPECT_TRUE(policy.ShouldRetry(transient, 2));
  EXPECT_FALSE(policy.ShouldRetry(transient, 3));
  EXPECT_FALSE(policy.ShouldRetry(transient, 4));
}

TEST(RetryPolicyTest, ShouldRetryRejectsPermanentFailures) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.ShouldRetry(Status::OutOfRange("done"), 1));
}

TEST(RetryPolicyTest, MaxAttemptsOneMeansNoRetries) {
  RetryPolicyConfig config;
  config.max_attempts = 1;
  RetryPolicy policy(config);
  EXPECT_FALSE(policy.ShouldRetry(Status::Unavailable("503"), 1));
}

// The backoff window for retry number `failures`: 1, 2, 4, 8, then 16.
uint64_t Window(uint32_t failures) {
  return uint64_t{1} << std::min(failures - 1, 4u);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  Status transient = Status::Unavailable("503");

  for (uint32_t failures = 1; failures <= 9; ++failures) {
    const uint64_t window = Window(failures);
    uint64_t lowest = window;
    uint64_t highest = 0;
    for (ValueId value = 0; value < 256; ++value) {
      uint64_t ticks = policy.BackoffTicks(transient, failures, value);
      lowest = std::min(lowest, ticks);
      highest = std::max(highest, ticks);
    }
    // Jitter spans exactly the lower half of the window: both ends occur.
    EXPECT_EQ(highest, window) << "failures=" << failures;
    EXPECT_EQ(lowest, window - window / 2) << "failures=" << failures;
  }
}

// Pins the backoff constants: a changed value here changes the
// backoff_ticks that every crawl under faults reports.
TEST(RetryPolicyTest, BackoffGoldenTable) {
  struct Row {
    uint64_t seed;
    bool hinted;  // a 429 carrying retry-after 5, else a plain 503
    std::vector<uint64_t> ticks;  // failures 1..6
  };
  const std::vector<Row> rows = {
      {0x5eed, false, {1, 2, 4, 7, 16, 10}},
      {0x5eed, true, {5, 5, 5, 7, 16, 10}},
      {7, false, {1, 2, 2, 6, 14, 10}},
      {7, true, {5, 5, 5, 6, 14, 10}},
  };
  for (const Row& row : rows) {
    RetryPolicyConfig config;
    config.seed = row.seed;
    RetryPolicy policy(config);
    Status status = row.hinted
                        ? Status::ResourceExhausted("429").WithRetryAfter(5)
                        : Status::Unavailable("503");
    std::vector<uint64_t> got;
    for (uint32_t failures = 1; failures <= 6; ++failures) {
      got.push_back(policy.BackoffTicks(status, failures, /*value=*/42));
    }
    EXPECT_EQ(got, row.ticks) << "seed=" << row.seed
                              << " hinted=" << row.hinted;
  }
}

TEST(RetryPolicyTest, JitterIsDeterministicAndWithinWindow) {
  RetryPolicy a;
  RetryPolicy b;
  Status transient = Status::Unavailable("503");

  for (uint32_t failures = 1; failures <= 6; ++failures) {
    for (ValueId value = 0; value < 20; ++value) {
      uint64_t ticks = a.BackoffTicks(transient, failures, value);
      // Stateless: only (seed, value, failures) matter, not call order.
      EXPECT_EQ(ticks, b.BackoffTicks(transient, failures, value));
      uint64_t window = Window(failures);
      EXPECT_GE(ticks, 1u);
      EXPECT_LE(ticks, window);
      // Half the window is guaranteed.
      EXPECT_GE(ticks, window - window / 2);
    }
  }
}

TEST(RetryPolicyTest, DistinctSeedsDecorrelateJitter) {
  RetryPolicyConfig config;
  RetryPolicyConfig other = config;
  other.seed = config.seed + 1;
  RetryPolicy a(config);
  RetryPolicy b(other);
  Status transient = Status::Unavailable("503");

  // At the capped window, jitter picks one of 9 values.
  int differing = 0;
  for (ValueId value = 0; value < 50; ++value) {
    if (a.BackoffTicks(transient, 5, value) !=
        b.BackoffTicks(transient, 5, value)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 25);
}

TEST(RetryPolicyTest, RetryAfterHintFloorsBackoff) {
  RetryPolicy policy;

  Status rate_limited = Status::ResourceExhausted("429").WithRetryAfter(9);
  EXPECT_EQ(policy.BackoffTicks(rate_limited, 1, 0), 9u);
  // A hint below the computed backoff does not shrink it.
  Status mild = Status::ResourceExhausted("429").WithRetryAfter(1);
  for (ValueId value = 0; value < 20; ++value) {
    EXPECT_EQ(policy.BackoffTicks(mild, 4, value),
              policy.BackoffTicks(Status::Unavailable("503"), 4, value));
  }
}

TEST(RetryPolicyTest, BackoffIsAtLeastOneTick) {
  RetryPolicy policy;
  for (uint32_t failures = 1; failures <= 9; ++failures) {
    for (ValueId value = 0; value < 20; ++value) {
      EXPECT_GE(policy.BackoffTicks(Status::Unavailable("x"), failures, value),
                1u);
    }
  }
}

TEST(RetryPolicyTest, FloorTicksIsExactlyTheAdvertisedHint) {
  RetryPolicy policy((RetryPolicyConfig()));
  EXPECT_EQ(policy.FloorTicks(Status::ResourceExhausted("429").WithRetryAfter(7)),
            7u);
  EXPECT_EQ(policy.FloorTicks(Status::ResourceExhausted("429").WithRetryAfter(1)),
            1u);
  // No hint, no floor — regardless of status code.
  EXPECT_EQ(policy.FloorTicks(Status::ResourceExhausted("429")), 0u);
  EXPECT_EQ(policy.FloorTicks(Status::Unavailable("503")), 0u);
  EXPECT_EQ(policy.FloorTicks(Status::OK()), 0u);
}

TEST(RetryPolicyTest, JitterNeverUndercutsTheRetryAfterFloor) {
  RetryPolicy policy;
  Status hinted = Status::ResourceExhausted("429").WithRetryAfter(11);
  for (uint32_t failures = 1; failures <= 6; ++failures) {
    for (ValueId value = 0; value < 64; ++value) {
      EXPECT_GE(policy.BackoffTicks(hinted, failures, value), 11u)
          << "failures=" << failures << " value=" << value;
    }
  }
}

}  // namespace
}  // namespace deepcrawl
