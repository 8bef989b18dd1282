// Naive query selection policies (§3.1): breadth-first, depth-first, and
// random.
//
// None of them uses database statistics: BFS organizes Lto-query as a
// queue (earlier-found values first), DFS as a stack (newest first), and
// Random picks uniformly. They serve as the paper's baselines for
// Figure 3.

#ifndef DEEPCRAWL_CRAWLER_NAIVE_SELECTORS_H_
#define DEEPCRAWL_CRAWLER_NAIVE_SELECTORS_H_

#include <deque>
#include <string_view>
#include <vector>

#include "src/crawler/query_selector.h"
#include "src/util/random.h"

namespace deepcrawl {

// Lto-query as a FIFO queue.
class BfsSelector : public QuerySelector {
 public:
  BfsSelector() = default;

  void OnValueDiscovered(ValueId v) override { queue_.push_back(v); }
  void OnValueTaken(ValueId v) override;
  ValueId SelectNext() override;
  std::string_view name() const override { return "bfs"; }

 private:
  std::deque<ValueId> queue_;
};

// Lto-query as a LIFO stack.
class DfsSelector : public QuerySelector {
 public:
  DfsSelector() = default;

  void OnValueDiscovered(ValueId v) override { stack_.push_back(v); }
  void OnValueTaken(ValueId v) override;
  ValueId SelectNext() override;
  std::string_view name() const override { return "dfs"; }

 private:
  std::vector<ValueId> stack_;
};

// Uniformly random pick from Lto-query (swap-with-last removal).
class RandomSelector : public QuerySelector {
 public:
  explicit RandomSelector(uint64_t seed) : rng_(seed) {}

  void OnValueDiscovered(ValueId v) override { pool_.push_back(v); }
  void OnValueTaken(ValueId v) override;
  ValueId SelectNext() override;
  std::string_view name() const override { return "random"; }

 private:
  Pcg32 rng_;
  std::vector<ValueId> pool_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_NAIVE_SELECTORS_H_
