// OracleSelector: greedy selection on the TRUE harvest rate.
//
// §2.5 defines the locally optimal strategy: always issue the candidate
// with the maximum true harvest rate
//
//   HR(q) = (num(q, DB) - num(q, DBlocal)) / cost(q, DB).
//
// A real crawler cannot compute this (num(q, DB) is unknown before
// querying), so this selector CHEATS: it is handed the ground-truth
// inverted index and serves as the offline near-optimal baseline that
// the online policies are measured against in the ablation benches.
//
// num(q, DBlocal) only grows, so the true HR of a fixed candidate only
// shrinks; the selector therefore uses a lazy max-heap: every harvested
// record re-pushes its pending values at their current rate, and a pop
// whose rate no longer matches is skipped as stale.

#ifndef DEEPCRAWL_CRAWLER_ORACLE_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_ORACLE_SELECTOR_H_

#include <cstdint>
#include <queue>
#include <string_view>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"
#include "src/index/inverted_index.h"

namespace deepcrawl {

class OracleSelector : public QuerySelector {
 public:
  // `truth` is the target database's real index; `page_size`/`result_limit`
  // must mirror the server options so costs match (limit 0 = unlimited).
  OracleSelector(const LocalStore& store, const InvertedIndex& truth,
                 uint32_t page_size, uint32_t result_limit = 0);

  void OnValueDiscovered(ValueId v) override;
  void OnRecordHarvested(uint32_t slot) override;
  ValueId SelectNext() override;
  std::string_view name() const override { return "oracle"; }

  // True harvest rate of `v` under the current DBlocal.
  double TrueHarvestRate(ValueId v) const;

 private:
  struct HeapEntry {
    double rate;
    ValueId value;
    bool operator<(const HeapEntry& other) const {
      if (rate != other.rate) return rate < other.rate;
      return value > other.value;
    }
  };

  bool IsPending(ValueId v) const {
    return v < pending_.size() && pending_[v] != 0;
  }

  const LocalStore& store_;
  const InvertedIndex& truth_;
  uint32_t page_size_;
  uint32_t result_limit_;
  std::priority_queue<HeapEntry> heap_;
  std::vector<char> pending_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_ORACLE_SELECTOR_H_
