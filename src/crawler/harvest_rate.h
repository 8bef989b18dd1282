// Windowed harvest-rate estimation for AdaptiveSelector's policy-switch
// rule.
//
// A first-sample-latched EWMA of records gained per communication round:
// the first observation seeds the estimate directly (no bias toward an
// arbitrary zero prior), later ones blend with weight `alpha`. The
// adaptive selector compares it against its per-phase peak to detect the
// §3.3 saturation knee. No checkpoint stores these fields: a resumed
// selector rebuilds them by replaying the waves that produced them.

#ifndef DEEPCRAWL_CRAWLER_HARVEST_RATE_H_
#define DEEPCRAWL_CRAWLER_HARVEST_RATE_H_

namespace deepcrawl {

struct HarvestRateEwma {
  bool seen = false;   // has any query been observed yet?
  double hr = 0.0;     // EWMA of new records per consumed round

  // Folds one per-round harvest rate into the estimate. `alpha` is the
  // blend weight of the new observation.
  void Observe(double alpha, double harvest_rate) {
    if (!seen) {
      seen = true;
      hr = harvest_rate;
    } else {
      hr = alpha * harvest_rate + (1.0 - alpha) * hr;
    }
  }
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_HARVEST_RATE_H_
