#include "src/crawler/retry_policy.h"

#include <algorithm>

#include "src/util/logging.h"

namespace deepcrawl {
namespace {

// SplitMix64 finalizer: a stateless hash so jitter depends only on
// (seed, value, attempt), never on how many other values retried before.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RetryPolicy::RetryPolicy(RetryPolicyConfig config) : config_(config) {
  DEEPCRAWL_CHECK_GE(config_.max_attempts, 1u);
}

bool RetryPolicy::IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

bool RetryPolicy::ShouldRetry(const Status& status, uint32_t failures) const {
  return IsRetryable(status) && failures < config_.max_attempts;
}

uint64_t RetryPolicy::BackoffTicks(const Status& status, uint32_t failures,
                                   ValueId value) const {
  DEEPCRAWL_DCHECK(failures >= 1) << "no backoff before the first failure";
  // Window 1, 2, 4, 8, then capped at 16 ticks.
  uint64_t capped = uint64_t{1} << std::min<uint32_t>(failures - 1, 4);
  // Deterministic jitter over the lower half of the window.
  uint64_t jitter_span = capped >> 1;
  uint64_t ticks = capped;
  if (jitter_span > 0) {
    uint64_t h = Mix64(config_.seed ^ Mix64((static_cast<uint64_t>(value) << 32) |
                                            failures));
    ticks = capped - (h % (jitter_span + 1));
  }
  if (status.retry_after_rounds().has_value()) {
    ticks = std::max<uint64_t>(ticks, *status.retry_after_rounds());
  }
  return ticks;
}

uint64_t RetryPolicy::FloorTicks(const Status& status) const {
  return status.retry_after_rounds().value_or(0);
}

}  // namespace deepcrawl
