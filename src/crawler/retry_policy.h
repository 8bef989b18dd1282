// RetryPolicy: capped exponential backoff with deterministic jitter for
// transient source failures, counted in simulated ticks.
//
// Real hidden-Web crawls run for days against sources that time out and
// rate-limit (§5.4); a crawler that dies on the first 503 never
// finishes. The policy decides, per failed page fetch,
//
//   * whether the failure is worth retrying (kUnavailable,
//     kDeadlineExceeded, kResourceExhausted are transient; everything
//     else is a bug or a permanent condition),
//   * whether the value's retry budget still allows another attempt, and
//   * how long to back off before it, in simulated ticks: a window of
//     1, 2, 4, 8, then 16 ticks for every later failure, minus a
//     deterministic jitter over its lower half (a hash of
//     seed/value/attempt stands in for wall-clock entropy, keeping runs
//     bit-reproducible), never less than the server's retry-after hint.
//
// Retried fetches are real round trips and count into the paper's
// communication-round cost; backoff ticks only add to
// ResilienceCounters::backoff_ticks, no time passes. When the per-drain
// budget is exhausted the crawler degrades gracefully: the value is
// re-queued at the frontier tail up to `max_requeues` times, then
// abandoned (see CrawlEngine::OnFetchFailure).

#ifndef DEEPCRAWL_CRAWLER_RETRY_POLICY_H_
#define DEEPCRAWL_CRAWLER_RETRY_POLICY_H_

#include <cstdint>

#include "src/relation/types.h"
#include "src/util/status.h"

namespace deepcrawl {

struct RetryPolicyConfig {
  // Maximum failed attempts per drain of one value before giving up
  // (must be >= 1; 1 = no retries).
  uint32_t max_attempts = 4;
  // How many times an exhausted value is re-queued at the frontier tail
  // before being abandoned.
  uint32_t max_requeues = 2;
  // Seed for the jitter hash; distinct seeds decorrelate fleets.
  uint64_t seed = 0x5eed;
};

class RetryPolicy {
 public:
  explicit RetryPolicy(RetryPolicyConfig config = RetryPolicyConfig());

  // Transient failures worth retrying; kOutOfRange / kInvalidArgument /
  // etc. are not (retrying cannot change the answer).
  static bool IsRetryable(const Status& status);

  // Whether attempt number `failures` (count of failed fetches of the
  // current drain, >= 1) leaves budget for another try.
  bool ShouldRetry(const Status& status, uint32_t failures) const;

  // Backoff before retry number `failures`, in simulated ticks: the
  // window min(16, 2^(failures-1)) less a jitter in [0, window/2] hashed
  // from (seed, value, failures), floored at the status's retry-after
  // hint. Always >= 1.
  uint64_t BackoffTicks(const Status& status, uint32_t failures,
                        ValueId value) const;

  // The server-advertised hard floor on when this failure may be
  // followed by another fetch: the status's retry-after hint, or 0 when
  // it carries none. BackoffTicks already applies it to retries; the
  // give-up paths (re-queue / abandon) must charge it too — a 429's
  // hint binds the *source*, not the value that happened to trigger it,
  // so giving up on the value does not license an earlier fetch.
  uint64_t FloorTicks(const Status& status) const;

  const RetryPolicyConfig& config() const { return config_; }

 private:
  RetryPolicyConfig config_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_RETRY_POLICY_H_
