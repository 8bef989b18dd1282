#include "src/crawler/local_store.h"

#include "src/util/logging.h"

namespace deepcrawl {

void LocalStore::EnsureValueCapacity(ValueId v) {
  if (v < local_frequency_.size()) return;
  size_t new_size = static_cast<size_t>(v) + 1;
  local_frequency_.resize(new_size, 0);
  degree_.resize(new_size, 0);
  postings_csr_.EnsureRows(new_size);
}

bool LocalStore::AddRecord(RecordId id, std::span<const ValueId> values) {
  DEEPCRAWL_CHECK(!values.empty()) << "harvested record has no values";
  uint32_t slot = static_cast<uint32_t>(num_records());
  bool inserted = false;
  uint32_t& stored_slot = slot_of_.Slot(uint64_t{id} + 1, &inserted);
  if (!inserted) return false;
  stored_slot = slot + 1;

  record_values_.insert(record_values_.end(), values.begin(), values.end());
  record_offsets_.push_back(record_values_.size());
  original_ids_.push_back(id);
  observation_count_.push_back(1);
  ++num_observations_;

  for (ValueId v : values) {
    EnsureValueCapacity(v);
    ++local_frequency_[v];
    postings_csr_.Append(v, slot);
  }
  // One probe per unordered pair; a new (min, max) edge adds one to
  // both endpoints' degrees.
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    for (size_t j = i + 1; j < values.size(); ++j) {
      ValueId a = values[i];
      ValueId b = values[j];
      if (a == b) continue;
      ValueId lo = a < b ? a : b;
      ValueId hi = a < b ? b : a;
      uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
      if (edge_set_.Insert(key)) {
        ++degree_[a];
        ++degree_[b];
      }
    }
  }
  return true;
}

bool LocalStore::ContainsRecord(RecordId id) const {
  return slot_of_.Find(uint64_t{id} + 1) != 0;
}

bool LocalStore::ObserveIfStored(RecordId id) {
  uint32_t stored_slot = slot_of_.Find(uint64_t{id} + 1);
  if (stored_slot == 0) return false;
  ++observation_count_[stored_slot - 1];
  ++num_observations_;
  return true;
}

void LocalStore::RestoreObservations(RecordId id, uint32_t count) {
  DEEPCRAWL_CHECK_GE(count, 1u);
  uint32_t stored_slot = slot_of_.Find(uint64_t{id} + 1);
  DEEPCRAWL_CHECK(stored_slot != 0)
      << "restoring observations of a record never added";
  uint32_t& stored = observation_count_[stored_slot - 1];
  num_observations_ += count;
  num_observations_ -= stored;
  stored = count;
}

uint64_t LocalStore::num_observations() const {
  return num_observations_;
}

size_t LocalStore::num_records() const {
  return record_offsets_.size() - 1;
}

size_t LocalStore::num_values_seen() const {
  return local_frequency_.size();
}

size_t LocalStore::RecordsObservedTimes(uint32_t k) const {
  DEEPCRAWL_CHECK_GE(k, 1u);
  size_t count = 0;
  for (uint32_t observations : observation_count_) {
    if (observations == k) ++count;
  }
  return count;
}

uint32_t LocalStore::LocalFrequency(ValueId v) const {
  if (v >= local_frequency_.size()) return 0;
  return local_frequency_[v];
}

uint64_t LocalStore::LocalDegree(ValueId v) const {
  if (v >= degree_.size()) return 0;
  return degree_[v];
}

std::span<const uint32_t> LocalStore::LocalPostings(ValueId v) const {
  if (v >= local_frequency_.size()) return {};
  return postings_csr_.Row(v);
}

std::span<const ValueId> LocalStore::RecordValues(uint32_t slot) const {
  DEEPCRAWL_CHECK_LT(slot, num_records()) << "local record slot out of range";
  size_t begin = record_offsets_[slot];
  size_t end = record_offsets_[slot + 1];
  return std::span<const ValueId>(record_values_.data() + begin, end - begin);
}

RecordId LocalStore::OriginalRecordId(uint32_t slot) const {
  DEEPCRAWL_CHECK_LT(slot, num_records()) << "local record slot out of range";
  return original_ids_[slot];
}

uint32_t LocalStore::ObservationCount(uint32_t slot) const {
  return observation_count_[slot];
}

}  // namespace deepcrawl
