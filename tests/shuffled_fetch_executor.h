// ShuffledFetchExecutor: a FetchExecutor that issues each wave's
// fetches in a seeded random order instead of rank order, still writing
// every result into its own rank's cell.
//
// It stands in for a transport whose requests reach the server out of
// rank order (a wave pipelined over several TCP connections), so tests
// can show that a crawl's output does not depend on the order its
// wave's fetches are served in: the engine commits strictly by rank,
// and keyed faults are a function of the fetch, not of its arrival.

#ifndef DEEPCRAWL_TESTS_SHUFFLED_FETCH_EXECUTOR_H_
#define DEEPCRAWL_TESTS_SHUFFLED_FETCH_EXECUTOR_H_

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/util/random.h"

namespace deepcrawl {

class ShuffledFetchExecutor : public FetchExecutor {
 public:
  explicit ShuffledFetchExecutor(uint64_t seed) : rng_(seed) {}

  void FetchWave(
      QueryInterface& server, std::span<const FetchRequest> requests,
      std::span<std::optional<StatusOr<ResultPage>>> results) override {
    order_.resize(requests.size());
    std::iota(order_.begin(), order_.end(), size_t{0});
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1],
                order_[rng_.NextBounded(static_cast<uint32_t>(i))]);
    }
    for (size_t i : order_) results[i] = ExecuteFetch(server, requests[i]);
  }

 private:
  Pcg32 rng_;
  std::vector<size_t> order_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_TESTS_SHUFFLED_FETCH_EXECUTOR_H_
