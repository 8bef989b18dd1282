// Flat open-addressing hash containers for the crawler's hot paths.
//
// The crawl loop's per-record bookkeeping (edge dedup in the local AVG,
// the record id -> slot map of the local store) used to live in
// std::unordered_set / std::unordered_map — one heap node per entry,
// pointer-chasing on every probe. These two containers replace them with
// single flat arrays and linear probing: one cache line per successful
// probe in the common case, amortized-doubling rehash ("epoch" rebuilds),
// no per-entry allocation. Both are deliberately minimal — 64-bit keys
// only, no erase — because that is exactly what the crawl loop needs.
//
// Key convention: 0 is the empty-slot sentinel, so keys must be nonzero.
// The edge set packs two distinct 32-bit ids into one key
// ((a << 32) | b with a != b), and the record map keys by id + 1;
// neither can be 0.

#ifndef DEEPCRAWL_UTIL_FLAT_HASH_H_
#define DEEPCRAWL_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace deepcrawl {

// SplitMix64 finalizer: cheap, well-mixed, and deterministic across
// platforms (the differential tests depend on nothing here, but fixed
// behaviour keeps benchmarks comparable).
inline uint64_t FlatHashMix(uint64_t key) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return key;
}

// Open-addressing set of nonzero 64-bit keys.
class FlatSet64 {
 public:
  FlatSet64() = default;

  // Inserts `key`; returns true when it was not present before.
  bool Insert(uint64_t key) {
    DEEPCRAWL_DCHECK(key != 0) << "0 is the empty-slot sentinel";
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) Grow();
    size_t i = FlatHashMix(key) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const {
    if (slots_.empty()) return false;
    size_t i = FlatHashMix(key) & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  size_t size() const { return size_; }

 private:
  void Grow() {
    size_t new_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (uint64_t key : old) {
      if (key == 0) continue;
      size_t i = FlatHashMix(key) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;  // 0 = empty
  size_t mask_ = 0;
  size_t size_ = 0;
};

// Open-addressing map from nonzero 64-bit keys to 32-bit counters.
class FlatMap64 {
 public:
  FlatMap64() = default;

  // Returns a reference to the value slot for `key`, inserting it with
  // value 0 when absent. `inserted` (optional) reports whether the key
  // was new. The reference is invalidated by the next Increment/
  // operator[] call (the table may rehash).
  uint32_t& Slot(uint64_t key, bool* inserted = nullptr) {
    DEEPCRAWL_DCHECK(key != 0) << "0 is the empty-slot sentinel";
    if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) Grow();
    size_t i = FlatHashMix(key) & mask_;
    while (keys_[i] != 0) {
      if (keys_[i] == key) {
        if (inserted != nullptr) *inserted = false;
        return values_[i];
      }
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = 0;
    ++size_;
    if (inserted != nullptr) *inserted = true;
    return values_[i];
  }

  // Value for `key`, or 0 when absent.
  uint32_t Find(uint64_t key) const {
    if (keys_.empty()) return 0;
    size_t i = FlatHashMix(key) & mask_;
    while (keys_[i] != 0) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask_;
    }
    return 0;
  }

  size_t size() const { return size_; }

 private:
  void Grow() {
    size_t new_cap = keys_.empty() ? 64 : keys_.size() * 2;
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_values = std::move(values_);
    keys_.assign(new_cap, 0);
    values_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == 0) continue;
      size_t i = FlatHashMix(old_keys[j]) & mask_;
      while (keys_[i] != 0) i = (i + 1) & mask_;
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }

  std::vector<uint64_t> keys_;  // 0 = empty
  std::vector<uint32_t> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_FLAT_HASH_H_
