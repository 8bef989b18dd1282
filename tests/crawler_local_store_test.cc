#include "src/crawler/local_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/random.h"
#include "src/util/zipf.h"
#include "tests/reference_local_store.h"

namespace deepcrawl {
namespace {

std::vector<ValueId> V(std::initializer_list<ValueId> ids) { return ids; }

TEST(LocalStoreTest, AddRecordDeduplicatesByRecordId) {
  LocalStore store;
  EXPECT_TRUE(store.AddRecord(7, V({1, 2, 3})));
  EXPECT_FALSE(store.AddRecord(7, V({1, 2, 3})));
  EXPECT_EQ(store.num_records(), 1u);
  EXPECT_TRUE(store.ContainsRecord(7));
  EXPECT_FALSE(store.ContainsRecord(8));
}

// The record index keys by id + 1, which wraps kInvalidRecordId to its
// empty-slot key: that id must never read as stored, while the largest
// valid id is stored and counted like any other.
TEST(LocalStoreTest, InvalidRecordIdIsNeverStored) {
  LocalStore store;
  EXPECT_FALSE(store.ContainsRecord(kInvalidRecordId));
  EXPECT_TRUE(store.AddRecord(kInvalidRecordId - 1, V({1, 2})));
  EXPECT_TRUE(store.AddRecord(0, V({2, 3})));
  EXPECT_FALSE(store.ContainsRecord(kInvalidRecordId));
  EXPECT_FALSE(store.ObserveIfStored(kInvalidRecordId));
  EXPECT_TRUE(store.ContainsRecord(kInvalidRecordId - 1));
  EXPECT_TRUE(store.ObserveIfStored(kInvalidRecordId - 1));
  EXPECT_EQ(store.OriginalRecordId(0), kInvalidRecordId - 1);
  EXPECT_EQ(store.num_observations(), 3u);
  EXPECT_EQ(store.RecordsObservedTimes(1), 1u);
  EXPECT_EQ(store.RecordsObservedTimes(2), 1u);
}

TEST(LocalStoreTest, LocalFrequencyCountsRecords) {
  LocalStore store;
  store.AddRecord(0, V({1, 2}));
  store.AddRecord(1, V({2, 3}));
  store.AddRecord(2, V({2, 4}));
  EXPECT_EQ(store.LocalFrequency(2), 3u);
  EXPECT_EQ(store.LocalFrequency(1), 1u);
  EXPECT_EQ(store.LocalFrequency(99), 0u);  // never seen
}

TEST(LocalStoreTest, RepeatedValueCountsOneRecord) {
  LocalStore store;
  store.AddRecord(0, V({5, 5, 6}));
  EXPECT_EQ(store.LocalFrequency(5), 1u);
  ASSERT_EQ(store.LocalPostings(5).size(), 1u);
  EXPECT_EQ(store.LocalPostings(5)[0], 0u);
  EXPECT_EQ(store.LocalDegree(5), 1u);  // {6}
  EXPECT_EQ(store.LocalDegree(6), 1u);  // {5}
}

TEST(LocalStoreTest, ExactDegreesCountDistinctNeighbors) {
  LocalStore store;
  store.AddRecord(0, V({1, 2, 3}));
  store.AddRecord(1, V({1, 2, 4}));
  // Value 1 co-occurs with {2, 3, 4}: degree 3 despite 2 occurring twice.
  EXPECT_EQ(store.LocalDegree(1), 3u);
  EXPECT_EQ(store.LocalDegree(3), 2u);
  EXPECT_EQ(store.LocalDegree(99), 0u);
}

TEST(LocalStoreTest, PostingsTrackSlots) {
  LocalStore store;
  store.AddRecord(10, V({5}));
  store.AddRecord(20, V({5, 6}));
  auto postings = store.LocalPostings(5);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0], 0u);
  EXPECT_EQ(postings[1], 1u);
  EXPECT_EQ(store.OriginalRecordId(0), 10u);
  EXPECT_EQ(store.OriginalRecordId(1), 20u);
  EXPECT_TRUE(store.LocalPostings(99).empty());
}

TEST(LocalStoreTest, RecordValuesRoundTrip) {
  LocalStore store;
  store.AddRecord(3, V({9, 4, 7}));
  auto values = store.RecordValues(0);
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], 9u);  // stored in given order
  EXPECT_EQ(values[1], 4u);
  EXPECT_EQ(values[2], 7u);
}

TEST(LocalStoreTest, NumValuesSeenGrowsWithMaxId) {
  LocalStore store;
  EXPECT_EQ(store.num_values_seen(), 0u);
  store.AddRecord(0, V({100}));
  EXPECT_EQ(store.num_values_seen(), 101u);  // dense id space
  EXPECT_EQ(store.LocalFrequency(50), 0u);
}

TEST(LocalStoreTest, DegreeIgnoresPairRepeatedInLaterRecord) {
  LocalStore store;
  store.AddRecord(0, V({1, 2, 3}));
  store.AddRecord(1, V({1, 4, 2}));  // edge 1-2 already known, 1-4 and 4-2 new
  EXPECT_EQ(store.LocalDegree(1), 3u);  // {2, 3, 4}
  EXPECT_EQ(store.LocalDegree(2), 3u);  // {1, 3, 4}
  EXPECT_EQ(store.LocalDegree(3), 2u);  // {1, 2}
  EXPECT_EQ(store.LocalDegree(4), 2u);  // {1, 2}
  store.AddRecord(2, V({2, 1}));  // only known edges, in reverse order
  EXPECT_EQ(store.LocalDegree(1), 3u);
  EXPECT_EQ(store.LocalDegree(2), 3u);
  EXPECT_EQ(store.LocalFrequency(1), 3u);
  EXPECT_EQ(store.LocalDegree(99), 0u);
}

TEST(LocalStoreTest, DegreeIgnoresSelfPairs) {
  LocalStore store;
  store.AddRecord(0, V({7, 7}));
  EXPECT_EQ(store.LocalDegree(7), 0u);  // a == a is no edge
  store.AddRecord(1, V({5, 5, 6}));
  EXPECT_EQ(store.LocalDegree(5), 1u);  // {6}, counted once
  EXPECT_EQ(store.LocalDegree(6), 1u);  // {5}
  store.AddRecord(2, V({6, 5, 6, 5}));
  EXPECT_EQ(store.LocalDegree(5), 1u);
  EXPECT_EQ(store.LocalDegree(6), 1u);
}

using RecordStream = std::vector<std::pair<RecordId, std::vector<ValueId>>>;

// Pseudo-random records of 1..6 values over [0, universe); ids are drawn
// from [0, count) so some repeat and must be rejected as duplicates.
RecordStream RandomStream(uint32_t count, uint32_t universe, uint64_t seed) {
  Pcg32 rng(seed);
  RecordStream stream;
  for (uint32_t r = 0; r < count; ++r) {
    std::vector<ValueId> values;
    uint32_t n = 1 + rng.NextBounded(6);
    for (uint32_t i = 0; i < n; ++i) {
      values.push_back(rng.NextBounded(universe));
    }
    stream.emplace_back(rng.NextBounded(count), std::move(values));
  }
  return stream;
}

// Every statistic LocalStore exposes per value must match the
// per-value-container oracle.
TEST(LocalStoreTest, MatchesReferenceStore) {
  // Overlapping records with intra-record duplicates to stress dedup.
  const RecordStream overlapping = {
      {0, {1, 2, 3}},    {1, {2, 3, 4}}, {2, {5, 5, 1}},
      {3, {4, 1, 2, 2}}, {4, {6}},       {5, {3, 6, 5}},
  };
  struct Case {
    const char* name;
    RecordStream stream;
  };
  const Case cases[] = {
      {"overlapping", overlapping},
      {"random", RandomStream(1200, 400, 17)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    LocalStore store;
    ReferenceLocalStore oracle;
    for (const auto& [id, values] : c.stream) {
      ASSERT_EQ(store.AddRecord(id, values), oracle.AddRecord(id, values))
          << "record " << id;
    }
    ASSERT_EQ(store.num_records(), oracle.num_records());
    ASSERT_EQ(store.num_values_seen(), oracle.num_values_seen());
    for (ValueId v = 0; v <= store.num_values_seen(); ++v) {
      EXPECT_TRUE(ValueMatchesReference(store, oracle, v));
    }
  }
}

// Zipf-drawn records of 1..8 values over [0, universe), the way server
// records look (sorted, duplicate-free), except every fifth record,
// which keeps its draw order and repeats. Ids repeat as in RandomStream.
RecordStream ZipfStream(uint32_t count, uint32_t universe, uint64_t seed) {
  Pcg32 rng(seed);
  ZipfSampler zipf(universe, 1.0);
  RecordStream stream;
  for (uint32_t r = 0; r < count; ++r) {
    std::vector<ValueId> values;
    uint32_t n = 1 + rng.NextBounded(8);
    for (uint32_t i = 0; i < n; ++i) values.push_back(zipf.Sample(rng));
    if (r % 5 != 0) {
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
    }
    stream.emplace_back(rng.NextBounded(count), std::move(values));
  }
  return stream;
}

// Values 1000 and 1001 each reach local frequency `t` in separate
// records, then cross T together in one unsorted record that repeats
// 1001; a later record pairs them again with a fresh value.
RecordStream JointCrossingStream(uint32_t t) {
  RecordStream stream;
  RecordId id = 100000;
  for (uint32_t k = 0; k < t; ++k) {
    stream.push_back({id++, {1000, 2000 + k}});
    stream.push_back({id++, {1001, 3000 + k}});
  }
  stream.push_back({id++, {1001, 1000, 5, 1001, 2000}});
  stream.push_back({id++, {5, 1000, 1001, 4000}});
  return stream;
}

constexpr uint32_t kHubThresholds[] = {0, 1, LocalStore::kHubFrequency,
                                       UINT32_MAX};

// Degrees, frequencies and postings match the oracle after every
// record, whichever threshold splits hashed from scanned pairs.
TEST(LocalStoreTest, EveryHubThresholdMatchesReferenceAfterEveryRecord) {
  for (uint32_t t : kHubThresholds) {
    SCOPED_TRACE(t);
    RecordStream stream = JointCrossingStream(std::min<uint32_t>(t, 8));
    RecordStream zipf = ZipfStream(500, 300, 29);
    stream.insert(stream.end(), zipf.begin(), zipf.end());
    LocalStore store(t);
    ReferenceLocalStore oracle;
    for (size_t r = 0; r < stream.size(); ++r) {
      const auto& [id, values] = stream[r];
      ASSERT_EQ(store.AddRecord(id, values), oracle.AddRecord(id, values))
          << "record " << r;
      ASSERT_EQ(store.num_values_seen(), oracle.num_values_seen());
      for (ValueId v = 0; v < store.num_values_seen(); ++v) {
        ASSERT_TRUE(ValueMatchesReference(store, oracle, v))
            << "after record " << r;
      }
    }
  }
}

// The hub hash holds exactly the edges whose endpoints both have local
// frequency above T: every edge at T = 0, none at UINT32_MAX.
TEST(LocalStoreTest, HubHashHoldsExactlyTheEdgesBetweenHubs) {
  for (uint32_t t : kHubThresholds) {
    SCOPED_TRACE(t);
    RecordStream stream = JointCrossingStream(std::min<uint32_t>(t, 8));
    RecordStream zipf = ZipfStream(800, 400, 31);
    stream.insert(stream.end(), zipf.begin(), zipf.end());
    LocalStore store(t);
    ReferenceLocalStore oracle;
    for (size_t r = 0; r < stream.size(); ++r) {
      const auto& [id, values] = stream[r];
      store.AddRecord(id, values);
      oracle.AddRecord(id, values);
      ASSERT_EQ(store.num_hub_edges(), oracle.NumEdgesAbove(t))
          << "after record " << r;
    }
    if (t == 0) {
      EXPECT_GT(store.num_hub_edges(), 0u);
    }
    if (t == UINT32_MAX) {
      EXPECT_EQ(store.num_hub_edges(), 0u);
    }
  }
}

TEST(LocalStoreTest, HubDegreeCountsEveryDistinctNeighbor) {
  LocalStore store;
  // A chain through a hub: record k holds {0, k + 1, k + 2}.
  for (RecordId id = 0; id < 200; ++id) {
    store.AddRecord(id, V({0, static_cast<ValueId>(id + 1),
                           static_cast<ValueId>(id + 2)}));
  }
  EXPECT_EQ(store.LocalDegree(0), 201u);  // hub saw every other value
  // Chain ends see the hub and one chain neighbour; inner values see the
  // hub and both chain neighbours.
  EXPECT_EQ(store.LocalDegree(1), 2u);
  EXPECT_EQ(store.LocalDegree(201), 2u);
  for (ValueId v = 2; v <= 200; ++v) {
    EXPECT_EQ(store.LocalDegree(v), 3u) << v;
  }
  EXPECT_EQ(store.LocalDegree(202), 0u);
}

TEST(LocalStoreDeathTest, EmptyRecordAborts) {
  LocalStore store;
  EXPECT_DEATH(store.AddRecord(0, {}), "no values");
}

}  // namespace
}  // namespace deepcrawl
