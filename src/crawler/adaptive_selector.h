// Adaptive meta-selection: switch policies online at the saturation knee.
//
// §3.3 observes that the greedy link-based crawler's marginal benefit
// decays past ~85% coverage and hand-switches to MMMI at a fixed
// coverage threshold. ROADMAP item 3 generalizes this: instead of a
// hand-picked policy per source kind (structured / textual / mixed),
// one meta-selector wraps an ordered chain of registered selectors —
// canonically GL → GL+MMMI → term-weight — and advances down the chain
// when a windowed harvest-rate estimator (an EWMA of new records per
// round, src/crawler/harvest_rate.h) decays past a fraction of its
// per-phase peak or under an absolute floor.
//
// Mechanics: every child observes the full crawl event stream
// (OnValueDiscovered / OnRecordHarvested / OnQueryCompleted /
// OnSaturation), so each maintains its own frontier and statistics and
// is "warm" the moment it becomes active. SelectNext consults only the
// active child; the chosen value is then reported to every other child
// via OnValueTaken so no frontier re-issues it. When a phase advances,
// the newly active child receives OnSaturation() — that is what flips
// an MMMI child into its marginal (dependency-scored) mode.
//
// Determinism: the switch rule is evaluated inside OnQueryCompleted,
// which the engine's wave committer replays in deterministic order, so
// the switch wave is a pure function of the crawl history: a
// checkpoint's replay rebuilds every phase and child exactly, and the
// bit-identity resume contract holds across the switch boundary.

#ifndef DEEPCRAWL_CRAWLER_ADAPTIVE_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_ADAPTIVE_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/crawler/harvest_rate.h"
#include "src/crawler/query_selector.h"

namespace deepcrawl {

class AdaptiveSelector : public QuerySelector {
 public:
  // EWMA blend weight of each completed query's records-per-round.
  static constexpr double kEwmaAlpha = 0.3;
  // Advance when the EWMA falls below this fraction of its peak within
  // the current phase...
  static constexpr double kSwitchDecay = 0.4;
  // ...or below this absolute records-per-round floor.
  static constexpr double kHarvestRateFloor = 0.5;
  // Minimum completed queries per phase before a switch is considered
  // (early estimates from a small DBlocal are noise, §3.3).
  static constexpr uint32_t kMinPhaseQueries = 25;

  // `children` is the phase chain, consulted in order; must be
  // non-empty, and every child must be frontier-driven
  // (MaySelectUndiscovered() == false) so the shared event stream fully
  // describes each child's candidate set.
  explicit AdaptiveSelector(
      std::vector<std::unique_ptr<QuerySelector>> children);

  void OnValueDiscovered(ValueId v) override;
  void OnRecordHarvested(uint32_t slot) override;
  void OnQueryCompleted(const QueryOutcome& outcome) override;
  void OnSaturation() override;
  void OnValueTaken(ValueId v) override;
  ValueId SelectNext() override;
  std::string_view name() const override { return name_; }

  // Introspection for tests and reports.
  size_t active_phase() const { return active_; }
  size_t num_phases() const { return children_.size(); }
  const HarvestRateEwma& estimator() const { return estimator_; }
  uint64_t phase_switches() const { return phase_switches_; }

 private:
  void AdvancePhase();

  std::vector<std::unique_ptr<QuerySelector>> children_;
  std::string name_;  // "adaptive(a,b,...)", checked by checkpoint CONF

  size_t active_ = 0;
  uint64_t phase_queries_ = 0;
  uint64_t phase_switches_ = 0;
  double peak_hr_ = 0.0;
  HarvestRateEwma estimator_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_ADAPTIVE_SELECTOR_H_
