// Greedy relational-link query selection (§3.2).
//
// Motivated by the power-law degree distribution of real database graphs
// (Figure 2), the greedy link-based crawler estimates a candidate's
// harvest rate as proportional to its degree in the local graph G_local
// and always queries the frontier value with the greatest link number —
// hub values uncover large portions of the database quickly.
//
// Implementation: an indexed binary max-heap with one entry per value
// the frontier received, and a per-value position index. Degrees only
// grow, so when a harvested record grows a pending value's degree its
// entry's key is raised in place and sifted up. Every pending value
// therefore has exactly one entry, at its current degree. Values that
// leave the frontier some other way (MMMI's batch, or OnValueTaken from
// an adaptive chain) keep their entry until SelectNext pops and skips
// it. The key (degree desc, id asc) is a strict total order, so the
// first pending value popped is the argmax over the pending set, however
// the heap is laid out. Lifetime heap pushes equal the number of values
// the frontier received.
//
// The frontier (Lto-query) lives in the shared FrontierSelector base
// (query_selector.h); this class adds the degree heap on top.

#ifndef DEEPCRAWL_CRAWLER_GREEDY_LINK_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_GREEDY_LINK_SELECTOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"

namespace deepcrawl {

class GreedyLinkSelector : public FrontierSelector {
 public:
  // `store` must outlive the selector and be the store the crawler
  // feeds; degrees are read from it.
  explicit GreedyLinkSelector(const LocalStore& store);

  void OnRecordHarvested(uint32_t slot) override;
  ValueId SelectNext() override;
  std::string_view name() const override { return "greedy-link"; }

  // Checkpointing: only the frontier, in its current swap-erase
  // permutation. The heap is derived state: LoadState rebuilds it from
  // the store's degrees, so the store must be restored first (the
  // engine and the fleet restore STOR before SELC).
  Status SaveState(CheckpointWriter& writer) const override;
  Status LoadState(CheckpointReader& reader, ValueId value_bound) override;

  // Diagnostics for the stress test's heap-growth assertion.
  size_t heap_size() const { return heap_.size(); }
  uint64_t heap_pushes() const { return heap_pushes_; }

 protected:
  void OnFrontierInsert(ValueId v) override;

 private:
  // Degree in the high half, the complemented id in the low half: one
  // integer comparison orders (degree desc, id asc). Degrees and ids
  // both fit in 32 bits, and no two entries share a value.
  static uint64_t Key(uint64_t degree, ValueId v) {
    return (degree << 32) | (UINT32_MAX - v);
  }
  static ValueId ValueOf(uint64_t key) {
    return UINT32_MAX - static_cast<uint32_t>(key);
  }

  void Push(ValueId v);
  void Place(size_t i, uint64_t key);
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::vector<uint64_t> heap_;
  std::vector<uint32_t> heap_pos_;  // by value; kNoPosition = no entry
  uint64_t heap_pushes_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_GREEDY_LINK_SELECTOR_H_
