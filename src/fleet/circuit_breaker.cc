#include "src/fleet/circuit_breaker.h"

#include <algorithm>

#include "src/util/logging.h"

namespace deepcrawl {

const char* BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

bool CircuitBreaker::CanAdmit(uint64_t now) const {
  if (exhausted()) return false;
  if (state_ == BreakerState::kOpen) return now >= admit_at_;
  return true;
}

uint64_t CircuitBreaker::EligibleAt(uint64_t now) const {
  if (state_ == BreakerState::kOpen) return std::max(now, admit_at_);
  return now;
}

void CircuitBreaker::Admit(uint64_t now) {
  DEEPCRAWL_DCHECK(CanAdmit(now)) << "turn granted past a closed gate";
  if (state_ == BreakerState::kOpen) {
    // Cooldown elapsed: this turn is the half-open probe.
    ticks_open_ += now - open_since_;
    state_ = BreakerState::kHalfOpen;
    ++transitions_.probes;
  }
}

void CircuitBreaker::TripOpen(uint64_t now) {
  state_ = BreakerState::kOpen;
  open_since_ = now;
  admit_at_ = now + cooldown_;
  consecutive_failed_ = 0;
}

void CircuitBreaker::OnTurn(uint64_t now, uint64_t rounds, uint64_t failures,
                            uint64_t new_records) {
  bool fully_failed = rounds > 0 && failures > 0 && new_records == 0;

  if (state_ == BreakerState::kHalfOpen) {
    if (fully_failed) {
      // Probe failed: back to open, with doubled (capped) cooldown.
      cooldown_ = std::min(kMaxCooldownTicks, cooldown_ * 2);
      ++transitions_.reopens;
      TripOpen(now);
    } else {
      // Probe succeeded: readmit. A flapper past the quarantine
      // threshold keeps its grown cooldown — one lucky probe must not
      // reset its re-probe backoff.
      state_ = BreakerState::kClosed;
      ++transitions_.closes;
      consecutive_failed_ = 0;
      if (!quarantined()) cooldown_ = kCooldownTicks;
    }
    return;
  }

  if (state_ != BreakerState::kClosed) return;
  if (fully_failed) {
    ++consecutive_failed_;
  } else {
    consecutive_failed_ = 0;
  }
  if (consecutive_failed_ >= kTripAfterFailedTurns) {
    ++transitions_.opens;
    TripOpen(now);
  }
}

uint64_t CircuitBreaker::TicksOpen(uint64_t now) const {
  uint64_t ticks = ticks_open_;
  if (state_ == BreakerState::kOpen && now > open_since_) {
    ticks += now - open_since_;
  }
  return ticks;
}

}  // namespace deepcrawl
