#include "src/crawler/greedy_link_selector.h"

#include "src/util/logging.h"

namespace deepcrawl {

GreedyLinkSelector::GreedyLinkSelector(const LocalStore& store)
    : FrontierSelector(store) {
  heap_.reserve(1024);
}

void GreedyLinkSelector::Place(size_t i, uint64_t key) {
  heap_[i] = key;
  heap_pos_[ValueOf(key)] = static_cast<uint32_t>(i);
}

void GreedyLinkSelector::SiftUp(size_t i) {
  uint64_t key = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (heap_[parent] > key) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, key);
}

void GreedyLinkSelector::SiftDown(size_t i) {
  uint64_t key = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] > heap_[child]) ++child;
    if (heap_[child] < key) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, key);
}

void GreedyLinkSelector::Push(ValueId v) {
  if (v >= heap_pos_.size()) {
    heap_pos_.resize(static_cast<size_t>(v) + 1, kNoPosition);
  }
  heap_.push_back(Key(store().LocalDegree(v), v));
  SiftUp(heap_.size() - 1);
  ++heap_pushes_;
}

void GreedyLinkSelector::OnFrontierInsert(ValueId v) { Push(v); }

void GreedyLinkSelector::OnRecordHarvested(uint32_t slot) {
  // Every pending value in the record may have gained links; raise its
  // key in place. A value listed twice in the record, or one whose
  // degree did not move, already holds its current key.
  for (ValueId v : store().RecordValues(slot)) {
    if (!IsPending(v)) continue;
    uint32_t pos = heap_pos_[v];
    uint64_t key = Key(store().LocalDegree(v), v);
    if (key == heap_[pos]) continue;
    DEEPCRAWL_DCHECK(key > heap_[pos]) << "local degree shrank";
    heap_[pos] = key;
    SiftUp(pos);
  }
}

ValueId GreedyLinkSelector::SelectNext() {
  while (!heap_.empty()) {
    ValueId v = ValueOf(heap_.front());
    heap_pos_[v] = kNoPosition;
    uint64_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      SiftDown(0);
    }
    if (!IsPending(v)) continue;  // taken by MMMI's batch or OnValueTaken
    MarkNotPending(v);
    return v;
  }
  return kInvalidValueId;
}

}  // namespace deepcrawl
