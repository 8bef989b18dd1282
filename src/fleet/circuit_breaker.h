// CircuitBreaker: per-source fault isolation for the crawl fleet
// (DESIGN.md §11).
//
// A fleet source that stalls, rate-limits, or dies must not keep eating
// scheduler turns: every round granted to a dead source is a round a
// healthy source did not get. The breaker is the classic three-state
// machine, evaluated at scheduler-turn granularity over the engine's
// own resilience deltas (no extra instrumentation in the hot fetch
// path):
//
//   closed ──(3 consecutive fully-failed turns)──▶ open
//   open   ──(cooldown elapsed; the next Admit grants a probe)──▶ half-open
//   half-open ──(probe turn harvested records / saw no failures)──▶ closed
//   half-open ──(probe turn fully failed)──▶ open, cooldown doubles
//
// The cooldown starts at 16 fleet ticks and doubles per failed probe up
// to 256: 16, 32, 64, 128, 256, 256, ... Flapping sources — ones that
// keep re-tripping — are quarantined from their 3rd trip (opens +
// reopens): they stay schedulable through probes but keep their grown
// cooldown even after a successful close, so a flapper cannot reset its
// own backoff by one lucky turn. At the 8th trip the breaker is
// exhausted: the fleet stops probing for good and the degradation
// report says so explicitly.
//
// A turn that harvests anything is not fully failed, however many of its
// fetches failed: such a source stays closed, and the fleet's harvest-rate
// ranking (each failed fetch costs its round) already puts it behind every
// more productive source.
//
// Everything is integer arithmetic over the fleet's simulated clock —
// no wall time — so breaker behaviour is a pure function of the turn
// history, and a fleet checkpoint rebuilds it by replaying turns.

#ifndef DEEPCRAWL_FLEET_CIRCUIT_BREAKER_H_
#define DEEPCRAWL_FLEET_CIRCUIT_BREAKER_H_

#include <cstdint>

#include "src/crawler/metrics.h"

namespace deepcrawl {

enum class BreakerState : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class CircuitBreaker {
 public:
  // Trip after this many consecutive fully-failed turns (a turn that
  // consumed rounds, saw failures, and harvested nothing).
  static constexpr uint32_t kTripAfterFailedTurns = 3;
  // Open duration (fleet clock ticks) before the first half-open probe,
  // and the cap a failed probe's doubling stops at.
  static constexpr uint64_t kCooldownTicks = 16;
  static constexpr uint64_t kMaxCooldownTicks = 256;
  // Total trips (opens + reopens) from which the source counts as
  // quarantined, and from which the fleet stops probing it for good.
  static constexpr uint32_t kQuarantineAfterTrips = 3;
  static constexpr uint32_t kAbandonAfterTrips = 8;

  BreakerState state() const { return state_; }
  // Trips so far crossed the quarantine threshold.
  bool quarantined() const { return trips() >= kQuarantineAfterTrips; }
  // Trips crossed the abandon threshold: never admit again.
  bool exhausted() const { return trips() >= kAbandonAfterTrips; }
  uint32_t trips() const {
    return transitions_.opens + transitions_.reopens;
  }

  // Whether a turn could be granted at fleet time `now` (const: safe to
  // evaluate for every source when picking). An open breaker admits once
  // its cooldown elapsed (the turn would be a probe).
  bool CanAdmit(uint64_t now) const;
  // Earliest fleet time CanAdmit turns true (now when it already is);
  // meaningless for an exhausted breaker (callers skip those).
  uint64_t EligibleAt(uint64_t now) const;
  // Commits the admission decided by CanAdmit for the source actually
  // granted the turn: an open breaker transitions to half-open and the
  // probe is counted. Call exactly once per granted turn, before it runs.
  void Admit(uint64_t now);

  // Reports the granted turn's outcome: rounds consumed, transient
  // failures observed, records newly harvested (deltas over the turn).
  void OnTurn(uint64_t now, uint64_t rounds, uint64_t failures,
              uint64_t new_records);

  // Cumulative fleet-clock ticks spent in the open state, including the
  // currently running open period.
  uint64_t TicksOpen(uint64_t now) const;

  const BreakerTransitions& transitions() const { return transitions_; }

 private:
  void TripOpen(uint64_t now);

  BreakerState state_ = BreakerState::kClosed;
  uint32_t consecutive_failed_ = 0;
  // Current cooldown (grows on failed probes, capped) and when the open
  // state next admits a probe.
  uint64_t cooldown_ = kCooldownTicks;
  uint64_t admit_at_ = 0;
  // Start of the current open period and ticks accumulated by closed
  // ones.
  uint64_t open_since_ = 0;
  uint64_t ticks_open_ = 0;
  BreakerTransitions transitions_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_FLEET_CIRCUIT_BREAKER_H_
