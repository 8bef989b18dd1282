// ReferenceLocalStore: the pre-optimization statistics-table layout,
// kept as a test oracle for LocalStore (src/crawler/local_store.h).
//
// One std::vector of record slots per value for the postings, and one
// std::unordered_set of neighbours per value for G_local — the obvious
// containers, with no arenas, compaction, edge hash or degree counters.
// LocalStore must be observationally identical to it: same frequencies,
// degrees (neighbour-set sizes), the same element order in every
// posting list, and the same per-record observation counts.

#ifndef DEEPCRAWL_TESTS_REFERENCE_LOCAL_STORE_H_
#define DEEPCRAWL_TESTS_REFERENCE_LOCAL_STORE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/relation/types.h"

namespace deepcrawl {

class ReferenceLocalStore {
 public:
  // Same contract as LocalStore::AddRecord: returns true when `id` was
  // new, and only then updates the statistics.
  bool AddRecord(RecordId id, std::span<const ValueId> values) {
    uint32_t slot = static_cast<uint32_t>(observations_.size());
    if (!observations_.emplace(id, 1).second) return false;
    ++num_observations_;
    // A value repeated within the record is one record containing it.
    std::vector<ValueId> distinct(values.begin(), values.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (ValueId v : distinct) {
      EnsureValueCapacity(v);
      ++local_frequency_[v];
      local_postings_[v].push_back(slot);
    }
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      for (size_t j = i + 1; j < values.size(); ++j) {
        ValueId a = values[i];
        ValueId b = values[j];
        if (a == b) continue;
        neighbor_sets_[a].insert(b);
        neighbor_sets_[b].insert(a);
      }
    }
    return true;
  }

  // Same contract as LocalStore::ObserveIfStored.
  bool ObserveIfStored(RecordId id) {
    auto it = observations_.find(id);
    if (it == observations_.end()) return false;
    ++it->second;
    ++num_observations_;
    return true;
  }

  uint64_t num_observations() const { return num_observations_; }

  size_t RecordsObservedTimes(uint32_t k) const {
    size_t count = 0;
    for (const auto& [id, observations] : observations_) {
      if (observations == k) ++count;
    }
    return count;
  }

  size_t num_records() const { return observations_.size(); }
  size_t num_values_seen() const { return local_frequency_.size(); }

  uint32_t LocalFrequency(ValueId v) const {
    return v < local_frequency_.size() ? local_frequency_[v] : 0;
  }

  uint64_t LocalDegree(ValueId v) const {
    if (v >= local_frequency_.size()) return 0;
    return neighbor_sets_[v].size();
  }

  std::span<const uint32_t> LocalPostings(ValueId v) const {
    if (v >= local_frequency_.size()) return {};
    return local_postings_[v];
  }

  // Edges of G_local whose two endpoints both have local frequency
  // above `hub_frequency`: what LocalStore's hub hash must hold.
  size_t NumEdgesAbove(uint32_t hub_frequency) const {
    size_t edges = 0;
    for (ValueId v = 0; v < neighbor_sets_.size(); ++v) {
      if (local_frequency_[v] <= hub_frequency) continue;
      for (ValueId w : neighbor_sets_[v]) {
        if (v < w && local_frequency_[w] > hub_frequency) ++edges;
      }
    }
    return edges;
  }

 private:
  void EnsureValueCapacity(ValueId v) {
    if (v < local_frequency_.size()) return;
    size_t new_size = static_cast<size_t>(v) + 1;
    local_frequency_.resize(new_size, 0);
    local_postings_.resize(new_size);
    neighbor_sets_.resize(new_size);
  }

  std::unordered_map<RecordId, uint32_t> observations_;  // per record id
  uint64_t num_observations_ = 0;
  std::vector<uint32_t> local_frequency_;
  std::vector<std::vector<uint32_t>> local_postings_;
  std::vector<std::unordered_set<ValueId>> neighbor_sets_;
};

// Compares every per-value statistic of `v` — frequency, degree, and
// the posting list element by element.
inline ::testing::AssertionResult ValueMatchesReference(
    const LocalStore& store, const ReferenceLocalStore& oracle, ValueId v) {
  if (store.LocalFrequency(v) != oracle.LocalFrequency(v)) {
    return ::testing::AssertionFailure()
           << "value " << v << ": LocalFrequency " << store.LocalFrequency(v)
           << " vs reference " << oracle.LocalFrequency(v);
  }
  if (store.LocalDegree(v) != oracle.LocalDegree(v)) {
    return ::testing::AssertionFailure()
           << "value " << v << ": LocalDegree " << store.LocalDegree(v)
           << " vs reference " << oracle.LocalDegree(v);
  }
  std::span<const uint32_t> postings = store.LocalPostings(v);
  std::span<const uint32_t> ref_postings = oracle.LocalPostings(v);
  if (!std::equal(postings.begin(), postings.end(), ref_postings.begin(),
                  ref_postings.end())) {
    return ::testing::AssertionFailure()
           << "value " << v << ": LocalPostings differs (size "
           << postings.size() << " vs reference " << ref_postings.size()
           << ")";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace deepcrawl

#endif  // DEEPCRAWL_TESTS_REFERENCE_LOCAL_STORE_H_
