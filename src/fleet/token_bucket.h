// TokenBucket: per-source politeness limiter over the fleet's simulated
// clock (DESIGN.md §11).
//
// Two mechanisms share this header because they are the two halves of
// adaptive politeness:
//
//   * the token bucket proper rate-limits how many communication rounds
//     a source may be granted per fleet-clock tick (capacity `burst`,
//     refilled at `rounds_per_tick`) — a static ceiling the operator
//     configures;
//   * the retry-after hard floor is enforced by the fleet itself: when a
//     turn saw rate-limit rejections, the source's next turn is pushed to
//     clock + the largest advertised hint (see CrawlFleet::RunTurn) — the
//     server's own dynamic signal, which always wins over the bucket.
//
// The default config (1 round/tick, burst 1024) never throttles a
// well-behaved crawl — the fleet clock itself advances one tick per
// round consumed, so spend and refill cancel — which is what keeps a
// single-source fleet bit-identical to a bare CrawlEngine. Tighter
// configs carve the global round stream between sources.
//
// Deterministic by construction: refill is a pure function of elapsed
// simulated ticks, never wall time.

#ifndef DEEPCRAWL_FLEET_TOKEN_BUCKET_H_
#define DEEPCRAWL_FLEET_TOKEN_BUCKET_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace deepcrawl {

struct PolitenessConfig {
  // Tokens (= grantable rounds) added per fleet-clock tick. Must be > 0.
  double rounds_per_tick = 1.0;
  // Bucket capacity: the largest burst of rounds a source may be granted
  // at once after sitting idle.
  double burst = 1024.0;
};

class TokenBucket {
 public:
  explicit TokenBucket(PolitenessConfig config)
      : config_(config), tokens_(config.burst) {}

  // Brings the bucket forward to fleet time `now` (monotone; earlier
  // times are ignored).
  void Refill(uint64_t now) {
    if (now <= last_refill_) return;
    tokens_ = std::min(config_.burst,
                       tokens_ + static_cast<double>(now - last_refill_) *
                                     config_.rounds_per_tick);
    last_refill_ = now;
  }

  // A turn needs at least one whole token to be granted at all.
  bool HasToken() const { return tokens_ >= 1.0; }

  // Largest whole number of rounds the bucket can pay for right now —
  // the politeness clamp on a turn's round grant.
  uint64_t AffordableRounds() const {
    return tokens_ < 1.0 ? 0 : static_cast<uint64_t>(tokens_);
  }

  // Ticks until HasToken() turns true (0 when it already is).
  uint64_t TicksUntilToken() const {
    if (HasToken()) return 0;
    double deficit = 1.0 - tokens_;
    uint64_t wait =
        static_cast<uint64_t>(std::ceil(deficit / config_.rounds_per_tick));
    return std::max<uint64_t>(wait, 1);
  }

  void Spend(uint64_t rounds) {
    tokens_ = std::max(0.0, tokens_ - static_cast<double>(rounds));
  }

 private:
  PolitenessConfig config_;
  double tokens_;
  uint64_t last_refill_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_FLEET_TOKEN_BUCKET_H_
