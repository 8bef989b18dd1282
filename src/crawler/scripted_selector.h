// ScriptedSelector: issue a predetermined list of queries.
//
// Two uses, both paper-adjacent:
//   * executing an OFFLINE plan — e.g. the Weighted Minimum Dominating
//     Set of Definition 2.4 computed with full knowledge of the graph —
//     so the online policies can be measured against the plan the
//     formulation says is optimal-ish (examples/offline_planning.cpp);
//   * replaying a recorded query sequence deterministically.
//
// The selector ignores discoveries and simply walks its script; values
// the crawler has already discovered elsewhere are still issued (the
// script is authoritative). SelectNext returns kInvalidValueId when the
// script is exhausted.

#ifndef DEEPCRAWL_CRAWLER_SCRIPTED_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_SCRIPTED_SELECTOR_H_

#include <string_view>
#include <vector>

#include "src/crawler/query_selector.h"

namespace deepcrawl {

class ScriptedSelector : public QuerySelector {
 public:
  explicit ScriptedSelector(std::vector<ValueId> script);

  void OnValueDiscovered(ValueId v) override { (void)v; }
  ValueId SelectNext() override;
  std::string_view name() const override { return "scripted"; }

  size_t remaining() const { return script_.size() - cursor_; }

 private:
  std::vector<ValueId> script_;
  size_t cursor_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_SCRIPTED_SELECTOR_H_
