#include "src/crawler/adaptive_selector.h"

#include <algorithm>

#include "src/util/logging.h"

namespace deepcrawl {

AdaptiveSelector::AdaptiveSelector(
    std::vector<std::unique_ptr<QuerySelector>> children)
    : children_(std::move(children)) {
  DEEPCRAWL_CHECK(!children_.empty()) << "adaptive chain must be non-empty";
  name_ = "adaptive(";
  for (size_t i = 0; i < children_.size(); ++i) {
    DEEPCRAWL_CHECK(!children_[i]->MaySelectUndiscovered())
        << "adaptive chain children must be frontier-driven";
    if (i > 0) name_ += ",";
    name_ += std::string(children_[i]->name());
  }
  name_ += ")";
}

void AdaptiveSelector::OnValueDiscovered(ValueId v) {
  for (auto& child : children_) child->OnValueDiscovered(v);
}

void AdaptiveSelector::OnRecordHarvested(uint32_t slot) {
  for (auto& child : children_) child->OnRecordHarvested(slot);
}

void AdaptiveSelector::OnSaturation() {
  // The engine's coverage-threshold signal reaches every child (it is a
  // statement about the crawl, not about the active policy); children
  // treat it idempotently.
  for (auto& child : children_) child->OnSaturation();
}

void AdaptiveSelector::OnValueTaken(ValueId v) {
  for (auto& child : children_) child->OnValueTaken(v);
}

void AdaptiveSelector::AdvancePhase() {
  ++active_;
  ++phase_switches_;
  phase_queries_ = 0;
  peak_hr_ = 0.0;
  // Activation doubles as the saturation signal for the incoming child:
  // an MMMI child switches into its marginal dependency-scored mode the
  // moment it takes over, exactly as §3.3's hand-tuned switch did.
  children_[active_]->OnSaturation();
}

void AdaptiveSelector::OnQueryCompleted(const QueryOutcome& outcome) {
  for (auto& child : children_) child->OnQueryCompleted(outcome);
  // One completed query = pages fetched + rounds lost to transient
  // failures (the paper's cost measure, Definition 2.3).
  uint32_t rounds =
      std::max<uint32_t>(1, outcome.pages_fetched + outcome.fetch_failures);
  estimator_.Observe(kEwmaAlpha,
                     static_cast<double>(outcome.new_records) /
                         static_cast<double>(rounds));
  ++phase_queries_;
  peak_hr_ = std::max(peak_hr_, estimator_.hr);
  if (active_ + 1 < children_.size() &&
      phase_queries_ >= kMinPhaseQueries &&
      (estimator_.hr < kSwitchDecay * peak_hr_ ||
       estimator_.hr < kHarvestRateFloor)) {
    AdvancePhase();
  }
}

ValueId AdaptiveSelector::SelectNext() {
  for (;;) {
    ValueId v = children_[active_]->SelectNext();
    if (v != kInvalidValueId) {
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i != active_) children_[i]->OnValueTaken(v);
      }
      return v;
    }
    // Active child exhausted; fall through the chain rather than stall
    // (later children share the same event stream, so normally they are
    // exhausted too — this covers policies that refuse early).
    if (active_ + 1 >= children_.size()) return kInvalidValueId;
    AdvancePhase();
  }
}

}  // namespace deepcrawl
