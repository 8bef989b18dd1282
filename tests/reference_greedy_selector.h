// ReferenceGreedySelector: the obvious reading of §3.2's Greedy Link
// policy, kept as a test oracle for GreedyLinkSelector
// (src/crawler/greedy_link_selector.h).
//
// It keeps no heap: every SelectNext rescans the pending values and
// returns the one with the greatest local degree, the smallest id among
// equals. GreedyLinkSelector's degree heap must pick the same value at
// every step, hence byte-identical crawl traces, under every fault
// profile and executor. ReferenceMmmiSelector builds its pre-saturation
// phase on this class, so neither oracle shares code with the heap.

#ifndef DEEPCRAWL_TESTS_REFERENCE_GREEDY_SELECTOR_H_
#define DEEPCRAWL_TESTS_REFERENCE_GREEDY_SELECTOR_H_

#include <cstdint>
#include <string_view>

#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"

namespace deepcrawl {

class ReferenceGreedySelector : public FrontierSelector {
 public:
  explicit ReferenceGreedySelector(const LocalStore& store)
      : FrontierSelector(store) {}

  std::string_view name() const override { return "greedy-link"; }

  ValueId SelectNext() override {
    ValueId best = kInvalidValueId;
    uint64_t best_degree = 0;
    for (ValueId v : PendingValues()) {
      uint64_t degree = store().LocalDegree(v);
      if (best == kInvalidValueId || degree > best_degree ||
          (degree == best_degree && v < best)) {
        best = v;
        best_degree = degree;
      }
    }
    if (best != kInvalidValueId) MarkNotPending(best);
    return best;
  }
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_TESTS_REFERENCE_GREEDY_SELECTOR_H_
