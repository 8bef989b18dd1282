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
  DEEPCRAWL_CHECK(id != kInvalidRecordId) << "harvested record has no id";
  if (!observations_.Insert(RecordKey(id))) return false;
  uint32_t slot = static_cast<uint32_t>(num_records());
  ++num_observations_;

  // Each unordered pair's (min, max) key, hashed, with its home slot in
  // the edge set prefetched now: the misses overlap with each other and
  // with the per-value updates below.
  pair_keys_.clear();
  pair_hashes_.clear();
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    for (size_t j = i + 1; j < values.size(); ++j) {
      ValueId a = values[i];
      ValueId b = values[j];
      if (a == b) continue;
      ValueId lo = a < b ? a : b;
      ValueId hi = a < b ? b : a;
      uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
      uint64_t hash = FlatHashMix(key);
      edge_set_.Prefetch(hash);
      pair_keys_.push_back(key);
      pair_hashes_.push_back(hash);
    }
  }

  record_values_.insert(record_values_.end(), values.begin(), values.end());
  record_offsets_.push_back(record_values_.size());
  original_ids_.push_back(id);
  for (ValueId v : values) {
    EnsureValueCapacity(v);
    ++local_frequency_[v];
    postings_csr_.Append(v, slot);
  }
  // One insert per pair, in pair order; a new edge adds one to both
  // endpoints' degrees.
  for (size_t k = 0; k < pair_keys_.size(); ++k) {
    uint64_t key = pair_keys_[k];
    if (edge_set_.InsertHashed(key, pair_hashes_[k])) {
      ++degree_[static_cast<ValueId>(key >> 32)];
      ++degree_[static_cast<ValueId>(key)];
    }
  }
  return true;
}

bool LocalStore::ContainsRecord(RecordId id) const {
  return observations_.Contains(RecordKey(id));
}

bool LocalStore::ObserveIfStored(RecordId id) {
  if (!observations_.IncrementIfPresent(RecordKey(id))) return false;
  ++num_observations_;
  return true;
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
  return observations_.CountEquals(k);
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

}  // namespace deepcrawl
