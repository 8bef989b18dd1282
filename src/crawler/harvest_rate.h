// Windowed harvest-rate health estimation, shared between CrawlFleet's
// marginal-harvest scheduler and AdaptiveSelector's policy-switch rule.
//
// Both consumers observe the same signal — records gained and failures
// suffered per communication round — and smooth it with the same
// first-sample-latched EWMA: the first observation seeds the estimate
// directly (no bias toward an arbitrary zero prior), later ones blend
// with weight `alpha`. The scheduler turns the estimate into a pick
// score (optimistic floor × failure discount); the adaptive selector
// compares it against its per-phase peak to detect the §3.3 saturation
// knee. Keeping the arithmetic in one place keeps the two bit-identical
// to their pre-refactor implementations. No checkpoint stores these
// fields: a resumed fleet or selector rebuilds them by replaying the
// turns or waves that produced them.

#ifndef DEEPCRAWL_CRAWLER_HARVEST_RATE_H_
#define DEEPCRAWL_CRAWLER_HARVEST_RATE_H_

#include <algorithm>

namespace deepcrawl {

struct HarvestRateEwma {
  bool seen = false;   // has any turn been observed yet?
  double hr = 0.0;     // EWMA of new records per consumed round
  double err = 0.0;    // EWMA of transient failures per consumed round

  // Folds one turn's per-round rates into the estimate. `alpha` is the
  // blend weight of the new observation (fleet default 0.4).
  void Observe(double alpha, double harvest_rate, double error_rate) {
    if (!seen) {
      seen = true;
      hr = harvest_rate;
      err = error_rate;
    } else {
      hr = alpha * harvest_rate + (1.0 - alpha) * hr;
      err = alpha * error_rate + (1.0 - alpha) * err;
    }
  }

  // Scheduler pick score: measured harvest rate held up by an optimism
  // floor, discounted by the failure fraction. Never negative.
  double Score(double floor) const {
    double rate = std::max(hr, floor);
    double health = std::max(0.0, 1.0 - err);
    return rate * health;
  }
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_HARVEST_RATE_H_
