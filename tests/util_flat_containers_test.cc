// Unit + randomized differential coverage for the flat hash containers
// (FlatIdIndex included) and the chunked arena backing the CSR hot paths
// (src/util/flat_hash.h, src/util/chunked_arena.h). The random sections
// drive each container against its STL reference under a fixed seed so
// any divergence is a deterministic repro.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/util/chunked_arena.h"
#include "src/util/flat_hash.h"

namespace deepcrawl {
namespace {

TEST(FlatSet64Test, InsertReportsNewness) {
  FlatSet64 set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Insert(7));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(42));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(1));
}

TEST(FlatSet64Test, GrowsPastInitialCapacityWithoutLoss) {
  FlatSet64 set;
  // Far past the initial 64 slots; forces several rehashes.
  for (uint64_t k = 1; k <= 10000; ++k) {
    EXPECT_TRUE(set.Insert(k * 2654435761u));
  }
  EXPECT_EQ(set.size(), 10000u);
  for (uint64_t k = 1; k <= 10000; ++k) {
    EXPECT_TRUE(set.Contains(k * 2654435761u));
    EXPECT_FALSE(set.Insert(k * 2654435761u));
  }
}

TEST(FlatSet64Test, MatchesUnorderedSetUnderRandomOps) {
  FlatSet64 set;
  std::unordered_set<uint64_t> reference;
  std::mt19937_64 rng(1234);
  // Small key space so inserts collide with earlier ones often.
  std::uniform_int_distribution<uint64_t> keys(1, 5000);
  for (int i = 0; i < 50000; ++i) {
    uint64_t key = keys(rng);
    EXPECT_EQ(set.Insert(key), reference.insert(key).second);
    EXPECT_EQ(set.size(), reference.size());
  }
  for (uint64_t key = 1; key <= 5000; ++key) {
    EXPECT_EQ(set.Contains(key), reference.count(key) > 0) << key;
  }
}

TEST(FlatSet64Test, PrefetchThenInsertMatchesPlainInsert) {
  // The store's ingest order: hash a batch of keys, prefetch every home
  // slot, then insert the batch in order. Membership and the capacity
  // after every insert must equal plain Insert's, growth points included.
  FlatSet64 plain;
  FlatSet64 prefetched;
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<uint64_t> keys(1, 20000);
  std::uniform_int_distribution<size_t> batch_size(1, 40);
  std::vector<uint64_t> batch;
  std::vector<uint64_t> hashes;
  size_t grows = 0;
  while (plain.size() < 12000) {
    batch.clear();
    hashes.clear();
    for (size_t n = batch_size(rng); n > 0; --n) {
      batch.push_back(keys(rng));
      hashes.push_back(FlatHashMix(batch.back()));
      prefetched.Prefetch(hashes.back());
    }
    for (size_t k = 0; k < batch.size(); ++k) {
      const size_t capacity_before = plain.capacity();
      ASSERT_EQ(prefetched.InsertHashed(batch[k], hashes[k]),
                plain.Insert(batch[k]));
      ASSERT_EQ(prefetched.capacity(), plain.capacity());
      ASSERT_EQ(prefetched.size(), plain.size());
      if (plain.capacity() != capacity_before) ++grows;
    }
  }
  EXPECT_GE(grows, 8u);  // 64 slots doubled past 12000 keys
  for (uint64_t key = 1; key <= 20000; ++key) {
    ASSERT_EQ(prefetched.Contains(key), plain.Contains(key)) << key;
  }
}

TEST(FlatCountMap32Test, InsertStartsCountAtOne) {
  FlatCountMap32 map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.Contains(99));
  EXPECT_TRUE(map.Insert(99));
  EXPECT_TRUE(map.Contains(99));
  EXPECT_EQ(map.Count(99), 1u);
  EXPECT_TRUE(map.IncrementIfPresent(99));
  EXPECT_TRUE(map.IncrementIfPresent(99));
  EXPECT_FALSE(map.Insert(99));  // present: the count is kept
  EXPECT_EQ(map.Count(99), 3u);
  EXPECT_EQ(map.Count(100), 0u);  // absent reads as zero
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatCountMap32Test, IncrementIfPresentLeavesAbsentKeysAlone) {
  FlatCountMap32 map;
  EXPECT_FALSE(map.IncrementIfPresent(5));  // empty table
  EXPECT_TRUE(map.Insert(5));
  EXPECT_FALSE(map.IncrementIfPresent(6));
  EXPECT_FALSE(map.Contains(6));
  // Key 0 is the empty-slot sentinel: never found, never counted.
  EXPECT_FALSE(map.IncrementIfPresent(0));
  EXPECT_FALSE(map.Contains(0));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.CountEquals(1), 1u);
}

TEST(FlatCountMap32Test, KeysUseTheFullThirtyTwoBits) {
  // Record index keys are id + 1, up to UINT32_MAX; the count in the
  // high half must not bleed into the key.
  FlatCountMap32 map;
  const uint32_t top = UINT32_MAX;
  EXPECT_TRUE(map.Insert(top));
  EXPECT_TRUE(map.Insert(1));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(map.IncrementIfPresent(top));
  EXPECT_EQ(map.Count(top), 6u);
  EXPECT_EQ(map.Count(1), 1u);
  EXPECT_EQ(map.CountEquals(6), 1u);
  EXPECT_EQ(map.CountEquals(1), 1u);
}

TEST(FlatCountMap32Test, MatchesUnorderedMapUnderRandomOps) {
  FlatCountMap32 map;
  std::unordered_map<uint32_t, uint32_t> reference;
  std::mt19937_64 rng(99);
  // Keys spread over the whole 32-bit range, drawn from a small pool so
  // operations revisit earlier keys; the pool forces several growths.
  std::vector<uint32_t> pool;
  std::uniform_int_distribution<uint32_t> any_key(1, UINT32_MAX);
  for (int i = 0; i < 4000; ++i) pool.push_back(any_key(rng));
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> op(0, 2);
  for (int i = 0; i < 80000; ++i) {
    const uint32_t key = pool[pick(rng)];
    auto it = reference.find(key);
    switch (op(rng)) {
      case 0:
        ASSERT_EQ(map.Insert(key), it == reference.end());
        if (it == reference.end()) reference.emplace(key, 1);
        break;
      case 1:
        ASSERT_EQ(map.IncrementIfPresent(key), it != reference.end());
        if (it != reference.end()) ++it->second;
        break;
      default:
        ASSERT_EQ(map.Contains(key), it != reference.end());
        ASSERT_EQ(map.Count(key), it == reference.end() ? 0 : it->second);
        break;
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  std::unordered_map<uint32_t, size_t> with_count;
  for (const auto& [key, count] : reference) {
    EXPECT_EQ(map.Count(key), count) << key;
    ++with_count[count];
  }
  ASSERT_GT(with_count.size(), 3u);
  for (const auto& [count, keys] : with_count) {
    EXPECT_EQ(map.CountEquals(count), keys) << count;
  }
}

// "k<i>".
std::string Key(int i) {
  std::string key = "k";
  key += std::to_string(i);
  return key;
}

// FlatIdIndex over keys kept by the test, as the value catalog keeps
// its texts: ids are positions in `keys`.
struct KeyedIndex {
  FlatIdIndex index;
  std::vector<std::string> keys;

  uint32_t FindOrInsert(const std::string& key, uint64_t hash) {
    const auto next = static_cast<uint32_t>(keys.size());
    const uint32_t id = index.FindOrInsert(
        hash, next, [&](uint32_t v) { return keys[v] == key; });
    if (id == next) keys.push_back(key);
    return id;
  }
  uint32_t Find(const std::string& key, uint64_t hash) const {
    return index.Find(hash, [&](uint32_t v) { return keys[v] == key; });
  }
};

TEST(FlatIdIndexTest, MatchesUnorderedMapUnderRandomOps) {
  KeyedIndex index;
  std::unordered_map<std::string, uint32_t> reference;
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<int> any(0, 20000);
  for (int i = 0; i < 60000; ++i) {
    const std::string key = Key(any(rng));
    const uint64_t hash = FlatHashText(key);
    auto it = reference.find(key);
    if (rng() % 3 == 0) {
      ASSERT_EQ(index.Find(key, hash),
                it == reference.end() ? FlatIdIndex::kAbsent : it->second);
    } else {
      const uint32_t id = index.FindOrInsert(key, hash);
      if (it == reference.end()) {
        ASSERT_EQ(id, reference.size());
        reference.emplace(key, id);
      } else {
        ASSERT_EQ(id, it->second);
      }
    }
    ASSERT_EQ(index.index.size(), reference.size());
  }
}

TEST(FlatIdIndexTest, EqualTagsFallBackToTheKeyComparison) {
  // Every key under one hash: each probe meets equal tags and must
  // decide by the caller's comparison alone.
  KeyedIndex index;
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(index.FindOrInsert(Key(i), 42), i);
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(index.Find(Key(i), 42), i);
    EXPECT_EQ(index.FindOrInsert(Key(i), 42), i);
  }
  EXPECT_EQ(index.Find(Key(300), 42), FlatIdIndex::kAbsent);
  EXPECT_EQ(index.index.size(), 300u);
}

TEST(FlatIdIndexTest, ReserveAvoidsGrowth) {
  KeyedIndex index;
  index.index.Reserve(1000);
  const size_t capacity = index.index.capacity();
  for (int i = 0; i < 1000; ++i) {
    const std::string key = Key(i);
    index.FindOrInsert(key, FlatHashText(key));
  }
  EXPECT_EQ(index.index.capacity(), capacity);
  // Reserving less than the table holds never shrinks it.
  index.index.Reserve(10);
  EXPECT_EQ(index.index.capacity(), capacity);
}

TEST(ChunkedArenaTest, AppendAndReadBackSingleRow) {
  ChunkedArena<uint32_t> arena;
  arena.EnsureRows(1);
  EXPECT_EQ(arena.num_rows(), 1u);
  EXPECT_EQ(arena.RowSize(0), 0u);
  EXPECT_TRUE(arena.Row(0).empty());
  for (uint32_t i = 0; i < 100; ++i) arena.Append(0, i * 3);
  ASSERT_EQ(arena.RowSize(0), 100u);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(arena.Row(0)[i], i * 3);
  EXPECT_EQ(arena.size(), 100u);
}

TEST(ChunkedArenaTest, InterleavedRowsPreserveOrderThroughRelocation) {
  // Round-robin appends force every row to relocate repeatedly as its
  // neighbors grow into the shared arena; the per-row order must be
  // exactly append order regardless.
  ChunkedArena<uint64_t> arena;
  constexpr uint32_t kRows = 7;
  constexpr uint32_t kPerRow = 500;
  arena.EnsureRows(kRows);
  for (uint32_t i = 0; i < kPerRow; ++i) {
    for (uint32_t row = 0; row < kRows; ++row) {
      arena.Append(row, static_cast<uint64_t>(row) * 1000000 + i);
    }
  }
  EXPECT_EQ(arena.size(), uint64_t{kRows} * kPerRow);
  for (uint32_t row = 0; row < kRows; ++row) {
    ASSERT_EQ(arena.RowSize(row), kPerRow);
    auto span = arena.Row(row);
    for (uint32_t i = 0; i < kPerRow; ++i) {
      ASSERT_EQ(span[i], static_cast<uint64_t>(row) * 1000000 + i);
    }
  }
}

TEST(ChunkedArenaTest, CompactionBoundsGarbage) {
  // Skewed random growth creates lots of abandoned (relocated-away)
  // capacity; epoch compaction must keep total arena storage within a
  // constant factor of live data instead of growing without bound.
  ChunkedArena<uint32_t> arena;
  constexpr uint32_t kRows = 64;
  arena.EnsureRows(kRows);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint32_t> pick(0, kRows - 1);
  std::vector<std::vector<uint32_t>> reference(kRows);
  for (uint32_t i = 0; i < 200000; ++i) {
    uint32_t row = pick(rng);
    arena.Append(row, i);
    reference[row].push_back(i);
  }
  EXPECT_EQ(arena.size(), 200000u);
  // Live 200k entries; doubling rows waste < 2x and compaction caps the
  // relocation garbage, so a 4x overall bound has ample slack while
  // still failing if Compact() never fires.
  EXPECT_LT(arena.arena_capacity(), 4u * 200000u);
  for (uint32_t row = 0; row < kRows; ++row) {
    auto span = arena.Row(row);
    ASSERT_EQ(span.size(), reference[row].size());
    for (size_t i = 0; i < span.size(); ++i) {
      ASSERT_EQ(span[i], reference[row][i]) << "row " << row;
    }
  }
}

TEST(ChunkedArenaTest, EnsureRowsGrowsIncrementally) {
  ChunkedArena<uint32_t> arena;
  arena.EnsureRows(2);
  arena.Append(0, 10);
  arena.Append(1, 11);
  arena.EnsureRows(5);  // existing rows survive the grow
  EXPECT_EQ(arena.num_rows(), 5u);
  arena.EnsureRows(3);  // never shrinks
  EXPECT_EQ(arena.num_rows(), 5u);
  EXPECT_EQ(arena.Row(0)[0], 10u);
  EXPECT_EQ(arena.Row(1)[0], 11u);
  EXPECT_EQ(arena.RowSize(4), 0u);
}

}  // namespace
}  // namespace deepcrawl
