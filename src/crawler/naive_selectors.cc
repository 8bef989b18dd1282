#include "src/crawler/naive_selectors.h"

#include <algorithm>

namespace deepcrawl {

namespace {

// Removes the first occurrence of `v`, preserving the relative order of
// the remaining entries (so the take is deterministic and the container
// semantics — queue/stack/pool — stay intact). O(n), fine for the
// baselines these selectors are.
template <typename Container>
void EraseTaken(Container& frontier, ValueId v) {
  auto it = std::find(frontier.begin(), frontier.end(), v);
  if (it != frontier.end()) frontier.erase(it);
}

}  // namespace

void BfsSelector::OnValueTaken(ValueId v) { EraseTaken(queue_, v); }
void DfsSelector::OnValueTaken(ValueId v) { EraseTaken(stack_, v); }
void RandomSelector::OnValueTaken(ValueId v) { EraseTaken(pool_, v); }

ValueId BfsSelector::SelectNext() {
  if (queue_.empty()) return kInvalidValueId;
  ValueId v = queue_.front();
  queue_.pop_front();
  return v;
}

ValueId DfsSelector::SelectNext() {
  if (stack_.empty()) return kInvalidValueId;
  ValueId v = stack_.back();
  stack_.pop_back();
  return v;
}

ValueId RandomSelector::SelectNext() {
  if (pool_.empty()) return kInvalidValueId;
  uint32_t i = rng_.NextBounded(static_cast<uint32_t>(pool_.size()));
  ValueId v = pool_[i];
  pool_[i] = pool_.back();
  pool_.pop_back();
  return v;
}

}  // namespace deepcrawl
