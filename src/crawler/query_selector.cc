#include "src/crawler/query_selector.h"

#include "src/crawler/local_store.h"
#include "src/util/logging.h"

namespace deepcrawl {

FrontierSelector::FrontierSelector(const LocalStore& store) : store_(store) {
  frontier_.reserve(1024);
}

void FrontierSelector::EnsureFrontierCapacity(ValueId v) {
  if (v < frontier_pos_.size()) return;
  frontier_pos_.resize(static_cast<size_t>(v) + 1, kNoPosition);
}

void FrontierSelector::OnValueDiscovered(ValueId v) {
  EnsureFrontierCapacity(v);
  DEEPCRAWL_DCHECK(frontier_pos_[v] == kNoPosition) << "value discovered twice";
  frontier_pos_[v] = static_cast<uint32_t>(frontier_.size());
  frontier_.push_back(v);
  OnFrontierInsert(v);
}

void FrontierSelector::OnValueTaken(ValueId v) {
  if (IsPending(v)) MarkNotPending(v);
}

}  // namespace deepcrawl
