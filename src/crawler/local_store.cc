#include "src/crawler/local_store.h"

#include <algorithm>

#include "src/util/logging.h"

namespace deepcrawl {

namespace {

uint64_t PairKey(ValueId a, ValueId b) {
  ValueId lo = a < b ? a : b;
  ValueId hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

}  // namespace

void LocalStore::EnsureValueCapacity(ValueId v) {
  if (v < local_frequency_.size()) return;
  size_t new_size = static_cast<size_t>(v) + 1;
  local_frequency_.resize(new_size, 0);
  degree_.resize(new_size, 0);
  postings_csr_.EnsureRows(new_size);
}

std::span<const ValueId> LocalStore::DistinctAscending(
    std::span<const ValueId> values) {
  bool ascending = true;
  for (size_t i = 1; i < values.size() && ascending; ++i) {
    ascending = values[i - 1] < values[i];
  }
  if (ascending) return values;
  distinct_.assign(values.begin(), values.end());
  std::sort(distinct_.begin(), distinct_.end());
  distinct_.erase(std::unique(distinct_.begin(), distinct_.end()),
                  distinct_.end());
  return distinct_;
}

bool LocalStore::AddRecord(RecordId id, std::span<const ValueId> values) {
  DEEPCRAWL_CHECK(!values.empty()) << "harvested record has no values";
  DEEPCRAWL_CHECK(id != kInvalidRecordId) << "harvested record has no id";
  if (!observations_.Insert(RecordKey(id))) return false;
  uint32_t slot = static_cast<uint32_t>(num_records());
  ++num_observations_;

  std::span<const ValueId> distinct = DistinctAscending(values);
  const size_t n = distinct.size();
  EnsureValueCapacity(distinct.back());
  positions_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    positions_[i] = {local_frequency_[distinct[i]], 0, false};
  }

  // Degrees are counted against the store as it was before this record.
  // Hub–hub pairs are hashed (home slots prefetched now, inserted after
  // the per-value updates so the misses overlap); pairs with a tail
  // endpoint go to that endpoint's scan.
  pair_keys_.clear();
  pair_hashes_.clear();
  tail_pairs_.clear();
  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const uint32_t fi = positions_[i].prior_frequency;
      const uint32_t fj = positions_[j].prior_frequency;
      if (fi == 0 || fj == 0) {
        ++positions_[i].new_edges;
        ++positions_[j].new_edges;
      } else if (fi > hub_frequency_ && fj > hub_frequency_) {
        uint64_t key = PairKey(distinct[i], distinct[j]);
        uint64_t hash = FlatHashMix(key);
        edge_set_.Prefetch(hash);
        pair_keys_.push_back(key);
        pair_hashes_.push_back(hash);
      } else if (fi <= fj) {
        positions_[i].scans = true;
        tail_pairs_.emplace_back(i, j);
      } else {
        positions_[j].scans = true;
        tail_pairs_.emplace_back(j, i);
      }
    }
  }
  if (!tail_pairs_.empty()) CountTailEdges(distinct);

  record_values_.insert(record_values_.end(), values.begin(), values.end());
  record_offsets_.push_back(record_values_.size());
  original_ids_.push_back(id);
  for (ValueId v : distinct) {
    ++local_frequency_[v];
    postings_csr_.Append(v, slot);
  }
  for (size_t k = 0; k < pair_keys_.size(); ++k) {
    uint64_t key = pair_keys_[k];
    if (edge_set_.InsertHashed(key, pair_hashes_[k])) {
      ++degree_[static_cast<ValueId>(key >> 32)];
      ++degree_[static_cast<ValueId>(key)];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    ValueId v = distinct[i];
    degree_[v] += positions_[i].new_edges;
    if (positions_[i].prior_frequency <= hub_frequency_ &&
        local_frequency_[v] > hub_frequency_) {
      PromoteToHub(v);
    }
  }
  return true;
}

void LocalStore::CountTailEdges(std::span<const ValueId> distinct) {
  // The loads run in stages, each prefetched for every scanning value
  // before the next stage reads it: posting rows, then their slots'
  // record offsets, then the records' values. A plain nested walk would
  // wait on each of those misses in turn.
  const size_t n = distinct.size();
  scan_rows_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (!positions_[i].scans) continue;
    std::span<const uint32_t> row = postings_csr_.Row(distinct[i]);
    __builtin_prefetch(row.data());
    scan_rows_.push_back(row);
  }
  for (std::span<const uint32_t> row : scan_rows_) {
    for (uint32_t s : row) __builtin_prefetch(&record_offsets_[s]);
  }
  scan_records_.clear();
  for (std::span<const uint32_t> row : scan_rows_) {
    for (uint32_t s : row) {
      const ValueId* begin = record_values_.data() + record_offsets_[s];
      const ValueId* end = record_values_.data() + record_offsets_[s + 1];
      __builtin_prefetch(begin);
      scan_records_.emplace_back(begin, end);
    }
  }

  // met_[i * n + j]: the value at position i has an earlier record that
  // holds the value at position j. Only scanning rows are filled.
  met_.resize(n * n);
  size_t record = 0;
  size_t row_index = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!positions_[i].scans) continue;
    uint8_t* met = met_.data() + i * n;
    std::fill(met, met + n, 0);
    const size_t num_records = scan_rows_[row_index++].size();
    for (size_t r = 0; r < num_records; ++r, ++record) {
      for (const ValueId* w = scan_records_[record].first;
           w != scan_records_[record].second; ++w) {
        // Branch-free search for the last value <= *w: whether *w is in
        // the record is a coin flip to the branch predictor.
        const ValueId* base = distinct.data();
        for (size_t len = n; len > 1; len -= len / 2) {
          base = base[len / 2] <= *w ? base + len / 2 : base;
        }
        met[base - distinct.data()] |= *base == *w;
      }
    }
  }
  for (auto [owner, other] : tail_pairs_) {
    if (!met_[owner * n + other]) {
      ++positions_[owner].new_edges;
      ++positions_[other].new_edges;
    }
  }
}

void LocalStore::PromoteToHub(ValueId v) {
  for (uint32_t slot : postings_csr_.Row(v)) {
    for (ValueId w : RecordValues(slot)) {
      if (w != v && local_frequency_[w] > hub_frequency_) {
        edge_set_.Insert(PairKey(v, w));
      }
    }
  }
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
