#include "src/crawler/term_weight_selector.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace deepcrawl {

TermWeightSelector::TermWeightSelector(const LocalStore& store,
                                       TermWeightOptions options)
    : FrontierSelector(store), options_(options) {
  DEEPCRAWL_CHECK_GT(options_.batch_size, 0u);
}

double TermWeightSelector::Weight(ValueId v) const {
  double df = static_cast<double>(store().LocalFrequency(v));
  if (df <= 0.0) return 0.0;
  double n = static_cast<double>(store().num_records());
  return df * std::log((n + 1.0) / df);
}

void TermWeightSelector::RecomputeBatch() {
  std::span<const ValueId> candidates = PendingValues();
  if (candidates.empty()) return;
  scored_.clear();
  scored_.reserve(candidates.size());
  for (ValueId v : candidates) {
    scored_.push_back(Scored{Weight(v), store().LocalFrequency(v), v});
  }
  // Top batch_size only; the comparator is a total order (it ends in the
  // value-id tie-break), so a partial sort selects exactly the prefix a
  // full sort would. Among equal weights prefer the larger result set,
  // then the smaller id for determinism.
  size_t take = std::min<size_t>(options_.batch_size, scored_.size());
  auto middle = scored_.begin() + static_cast<ptrdiff_t>(take);
  std::partial_sort(scored_.begin(), middle, scored_.end(),
                    [](const Scored& a, const Scored& b) {
                      if (a.weight != b.weight) return a.weight > b.weight;
                      if (a.df != b.df) return a.df > b.df;
                      return a.value < b.value;
                    });
  batch_queue_.clear();
  for (size_t i = 0; i < take; ++i) {
    batch_queue_.push_back(scored_[i].value);
  }
}

ValueId TermWeightSelector::SelectNext() {
  for (;;) {
    if (batch_queue_.empty()) {
      RecomputeBatch();
      if (batch_queue_.empty()) return kInvalidValueId;
    }
    ValueId v = batch_queue_.front();
    batch_queue_.pop_front();
    if (!IsPending(v)) continue;  // consumed by an earlier pop or taken
    MarkNotPending(v);
    return v;
  }
}

}  // namespace deepcrawl
