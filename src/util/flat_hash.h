// Flat open-addressing hash containers for the crawler's hot paths.
//
// The crawl loop's per-record bookkeeping (hub–hub edge dedup in the
// local AVG, the record index of the local store) used to live in
// std::unordered_set / std::unordered_map — one heap node per entry,
// pointer-chasing on every probe. These two containers replace them with
// single flat arrays of 8-byte slots and linear probing: one cache line
// per probe in the common case, amortized-doubling rehash ("epoch"
// rebuilds), no per-entry allocation. Both are deliberately minimal — no
// erase — because that is exactly what the crawl loop needs.
//
// Probes into a table far larger than the cache are independent misses.
// FlatSet64 exposes Prefetch so a caller that knows its next keys (a
// record's hub–hub value pairs) can issue every miss before the first probe
// waits on one; the inserts that follow are the same operations in the
// same order, so prefetching changes no content and no growth point.
//
// Key convention: 0 is the empty-slot sentinel, so keys must be nonzero.
// The edge set packs two distinct 32-bit ids into one key
// ((a << 32) | b with a != b), and the record index keys by id + 1;
// neither can be 0.
//
// FlatIdIndex is the same table for keys that live outside it: the value
// catalog's (attribute, text) pairs in its text arena, the server's
// keyword tokens. It stores ids only, and the caller hashes a key and
// says whether an id's key equals it, so a lookup by string_view
// allocates nothing.

#ifndef DEEPCRAWL_UTIL_FLAT_HASH_H_
#define DEEPCRAWL_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
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

// FlatHashMix of std::hash over `text`, offset by `salt` (the value
// catalog salts with the attribute id, so equal texts under different
// attributes land apart).
inline uint64_t FlatHashText(std::string_view text, uint64_t salt = 0) {
  return FlatHashMix(std::hash<std::string_view>()(text) + salt);
}

// Open-addressing set of nonzero 64-bit keys.
class FlatSet64 {
 public:
  FlatSet64() = default;

  // Inserts `key`; returns true when it was not present before.
  bool Insert(uint64_t key) { return InsertHashed(key, FlatHashMix(key)); }

  // Insert with `hash` == FlatHashMix(key) computed by the caller, who
  // has usually passed it to Prefetch already.
  bool InsertHashed(uint64_t key, uint64_t hash) {
    DEEPCRAWL_DCHECK(key != 0) << "0 is the empty-slot sentinel";
    DEEPCRAWL_DCHECK(hash == FlatHashMix(key));
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) Grow();
    size_t i = hash & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  // Starts loading the home slot of the key whose FlatHashMix is
  // `hash`, for a later InsertHashed. A growth in between only wastes
  // the prefetch.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & mask_], 1);
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
  size_t capacity() const { return slots_.size(); }

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

// Open-addressing map from nonzero 32-bit keys to 32-bit counts, packed
// into one 8-byte slot, (count << 32) | key: a probe that finds the key
// has the count in the same cache line. A count wraps at 2^32.
class FlatCountMap32 {
 public:
  FlatCountMap32() = default;

  // Inserts `key` with count 1; returns false, changing nothing, when
  // it is already present.
  bool Insert(uint32_t key) {
    DEEPCRAWL_DCHECK(key != 0) << "0 is the empty-slot sentinel";
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) Grow();
    size_t i = FlatHashMix(key) & mask_;
    while (slots_[i] != 0) {
      if (static_cast<uint32_t>(slots_[i]) == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = kOne | key;
    ++size_;
    return true;
  }

  // Adds one to the count of `key` and returns true when it is present;
  // otherwise changes nothing and returns false. Key 0 is never present.
  bool IncrementIfPresent(uint32_t key) {
    const size_t i = IndexOf(key);
    if (i == kAbsent) return false;
    slots_[i] += kOne;
    return true;
  }

  bool Contains(uint32_t key) const { return IndexOf(key) != kAbsent; }

  // Count of `key`, or 0 when absent.
  uint32_t Count(uint32_t key) const {
    const size_t i = IndexOf(key);
    return i == kAbsent ? 0 : static_cast<uint32_t>(slots_[i] >> 32);
  }

  // Number of keys whose count is exactly `count`; one pass over the
  // slots.
  size_t CountEquals(uint32_t count) const {
    size_t n = 0;
    for (uint64_t slot : slots_) {
      if (slot != 0 && static_cast<uint32_t>(slot >> 32) == count) ++n;
    }
    return n;
  }

  size_t size() const { return size_; }

 private:
  static constexpr uint64_t kOne = uint64_t{1} << 32;
  static constexpr size_t kAbsent = SIZE_MAX;

  // Slot index holding `key`, or kAbsent.
  size_t IndexOf(uint32_t key) const {
    if (slots_.empty()) return kAbsent;
    size_t i = FlatHashMix(key) & mask_;
    while (slots_[i] != 0) {
      if (static_cast<uint32_t>(slots_[i]) == key) return i;
      i = (i + 1) & mask_;
    }
    return kAbsent;
  }

  void Grow() {
    size_t new_cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (uint64_t slot : old) {
      if (slot == 0) continue;
      size_t i = FlatHashMix(static_cast<uint32_t>(slot)) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  // 0 = empty. An occupied slot's low half (the key) is nonzero, so a
  // count that wraps to 0 never empties it.
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// Open-addressing index of 32-bit ids whose keys are stored elsewhere.
// A slot packs (tag << 32) | (id + 1), where the tag is the key hash's
// high 32 bits: a probe calls the caller's `equals(id)` only on a tag
// match, and growth rehashes from the tags without touching any key.
// Ids must be below UINT32_MAX.
class FlatIdIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  FlatIdIndex() = default;

  // Sizes the table so that `n` ids fit without a growth.
  void Reserve(size_t n) {
    size_t cap = 64;
    while (n * 4 > cap * 3) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  // The id whose key hashes to `hash` and satisfies `equals(id)`, or
  // kAbsent.
  template <typename Equals>
  uint32_t Find(uint64_t hash, Equals&& equals) const {
    if (slots_.empty()) return kAbsent;
    const uint64_t tag = hash >> 32;
    for (size_t i = tag & mask_; slots_[i] != 0; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if ((slot >> 32) == tag && equals(IdOf(slot))) return IdOf(slot);
    }
    return kAbsent;
  }

  // Find; when absent, inserts `id` under `hash` and returns it.
  template <typename Equals>
  uint32_t FindOrInsert(uint64_t hash, uint32_t id, Equals&& equals) {
    DEEPCRAWL_DCHECK(id != kAbsent);
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? 64 : slots_.size() * 2);
    }
    const uint64_t tag = hash >> 32;
    size_t i = tag & mask_;
    for (; slots_[i] != 0; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if ((slot >> 32) == tag && equals(IdOf(slot))) return IdOf(slot);
    }
    slots_[i] = (tag << 32) | (uint64_t{id} + 1);
    ++size_;
    return id;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  static uint32_t IdOf(uint64_t slot) {
    return static_cast<uint32_t>(slot) - 1;
  }

  void Rehash(size_t new_cap) {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (uint64_t slot : old) {
      if (slot == 0) continue;
      size_t i = (slot >> 32) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<uint64_t> slots_;  // 0 = empty
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_FLAT_HASH_H_
