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
//   closed ──(consecutive fully-failed turns >= threshold)──▶ open
//   open   ──(cooldown elapsed; the next Admit grants a probe)──▶ half-open
//   half-open ──(probe turn harvested records / saw no failures)──▶ closed
//   half-open ──(probe turn fully failed)──▶ open, cooldown grows
//              (capped exponential re-probe backoff)
//
// Flapping sources — ones that keep re-tripping — cross the quarantine
// threshold (opens + reopens): they stay schedulable through probes but
// keep their grown cooldown even after a successful close, so a flapper
// cannot reset its own backoff by one lucky turn. Past the abandon
// threshold the breaker is exhausted: the fleet stops probing for good
// and the degradation report says so explicitly.
//
// A turn that harvests anything is not fully failed, however many of its
// fetches failed: such a source stays closed, and the fleet's harvest-rate
// ranking (each failed fetch costs its round) already puts it behind every
// more productive source.
//
// Everything is integer/double arithmetic over the fleet's simulated
// clock — no wall time — so breaker behaviour is a pure function of the
// turn history, and a fleet checkpoint rebuilds it by replaying turns.

#ifndef DEEPCRAWL_FLEET_CIRCUIT_BREAKER_H_
#define DEEPCRAWL_FLEET_CIRCUIT_BREAKER_H_

#include <cstdint>

#include "src/crawler/metrics.h"

namespace deepcrawl {

struct CircuitBreakerConfig {
  // Trip after this many consecutive fully-failed turns (a turn that
  // consumed rounds, saw failures, and harvested nothing).
  uint32_t consecutive_failed_turns = 3;
  // Open duration (fleet clock ticks) before the first half-open probe.
  uint64_t cooldown_ticks = 16;
  // Re-probe backoff: cooldown growth per failed probe, capped.
  double cooldown_multiplier = 2.0;
  uint64_t max_cooldown_ticks = 256;
  // Total trips (opens + reopens) after which the source counts as
  // quarantined in the degradation report.
  uint32_t quarantine_after_trips = 3;
  // Total trips after which the breaker is exhausted and the fleet stops
  // probing the source for good (0 = keep probing forever).
  uint32_t abandon_after_trips = 8;
};

enum class BreakerState : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateToString(BreakerState state);

class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config);

  BreakerState state() const { return state_; }
  // Trips so far crossed the quarantine threshold.
  bool quarantined() const {
    return trips() >= config_.quarantine_after_trips;
  }
  // Trips crossed the abandon threshold: never admit again.
  bool exhausted() const {
    return config_.abandon_after_trips > 0 &&
           trips() >= config_.abandon_after_trips;
  }
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

  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  uint32_t consecutive_failed_ = 0;
  // Current cooldown (grows on failed probes, capped) and when the open
  // state next admits a probe.
  uint64_t cooldown_ = 0;
  uint64_t admit_at_ = 0;
  // Start of the current open period and ticks accumulated by closed
  // ones.
  uint64_t open_since_ = 0;
  uint64_t ticks_open_ = 0;
  BreakerTransitions transitions_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_FLEET_CIRCUIT_BREAKER_H_
