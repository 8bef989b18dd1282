// Property-based invariants of the attribute-value graph (§2.4) and of
// crawl state over it, checked on seeded random workloads:
//
//   * AVG structure: adjacency is symmetric, irreflexive, and sorted;
//     the degree sum equals twice the edge count; every record's value
//     set forms a clique.
//   * Crawl state, after EVERY budget slice of a crawl (serial and
//     parallel): visited values ⊆ revealed values (a value is only ever
//     queried after some fetched record revealed it or it was a seed),
//     and the local store is a faithful subset of the true table — local
//     frequency and local degree never exceed their true-table / AVG
//     counterparts, and LocalDegree equals every value's degree in the
//     AVG built from the harvested records alone (G_local), itself a
//     subgraph of the truth AVG.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/local_store.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/query_selector.h"
#include "src/graph/attribute_value_graph.h"
#include "src/server/web_db_server.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::MakeTable;
using testing_util::Row;

// Seeded random workload generator: a small table with 2-4 attributes,
// per-attribute value pools, and uniform draws — enough entropy to shake
// out structural bugs while staying cheap under TSan.
Table RandomTable(uint64_t seed) {
  Pcg32 rng(seed);
  uint32_t num_attrs = 2 + rng.NextBounded(3);
  uint32_t num_records = 30 + rng.NextBounded(90);
  std::vector<uint32_t> pool_size(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    pool_size[a] = 3 + rng.NextBounded(22);
  }
  std::vector<Row> rows;
  for (uint32_t r = 0; r < num_records; ++r) {
    Row row;
    for (uint32_t a = 0; a < num_attrs; ++a) {
      row.emplace_back("attr" + std::to_string(a),
                       "v" + std::to_string(a) + "_" +
                           std::to_string(rng.NextBounded(pool_size[a])));
    }
    rows.push_back(std::move(row));
  }
  return MakeTable(rows);
}

void CheckAvgStructure(const Table& table) {
  AttributeValueGraph avg = AttributeValueGraph::Build(table);
  uint64_t degree_sum = 0;
  uint64_t edge_count_via_neighbors = 0;
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    std::span<const ValueId> neighbors = avg.Neighbors(v);
    degree_sum += avg.Degree(v);
    EXPECT_EQ(neighbors.size(), avg.Degree(v));
    ValueId prev = kInvalidValueId;
    for (ValueId u : neighbors) {
      EXPECT_NE(u, v) << "self loop at " << v;
      if (prev != kInvalidValueId) {
        EXPECT_LT(prev, u) << "unsorted adjacency at " << v;
      }
      prev = u;
      EXPECT_TRUE(avg.HasEdge(u, v)) << "asymmetric edge " << v << "-" << u;
      ++edge_count_via_neighbors;
    }
  }
  // Each undirected edge is seen from both endpoints.
  EXPECT_EQ(edge_count_via_neighbors % 2, 0u);
  EXPECT_EQ(degree_sum, edge_count_via_neighbors);
  EXPECT_EQ(degree_sum, 2 * avg.num_edges());

  // Every record's values form a clique (Definition 2.4: values
  // co-occurring in a record are linked).
  for (RecordId r = 0; r < table.num_records(); ++r) {
    std::span<const ValueId> values = table.record(r);
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = i + 1; j < values.size(); ++j) {
        if (values[i] == values[j]) continue;
        EXPECT_TRUE(avg.HasEdge(values[i], values[j]))
            << "record " << r << " pair not linked";
      }
    }
  }
}

TEST(AvgInvariantsPropertyTest, GraphStructureHoldsOnRandomTables) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    CheckAvgStructure(RandomTable(seed));
  }
}

// A selector wrapper that records what the crawler revealed and what it
// visited, so visited ⊆ revealed can be asserted from the outside.
class RecordingSelector : public QuerySelector {
 public:
  explicit RecordingSelector(QuerySelector& inner) : inner_(inner) {}

  void OnValueDiscovered(ValueId v) override {
    revealed_.insert(v);
    inner_.OnValueDiscovered(v);
  }
  ValueId SelectNext() override {
    ValueId v = inner_.SelectNext();
    if (v != kInvalidValueId) {
      EXPECT_TRUE(revealed_.count(v))
          << "selector returned never-revealed value " << v;
      visited_.insert(v);
    }
    return v;
  }
  void OnRecordHarvested(uint32_t slot) override {
    inner_.OnRecordHarvested(slot);
  }
  void OnQueryCompleted(const QueryOutcome& outcome) override {
    inner_.OnQueryCompleted(outcome);
  }
  void OnSaturation() override { inner_.OnSaturation(); }
  std::string_view name() const override { return "recording"; }

  const std::set<ValueId>& revealed() const { return revealed_; }
  const std::set<ValueId>& visited() const { return visited_; }

 private:
  QuerySelector& inner_;
  std::set<ValueId> revealed_;
  std::set<ValueId> visited_;
};

// Local-store-vs-truth invariants that must hold at every point of any
// crawl, however it was scheduled.
void CheckLocalSubsetOfTruth(const Table& table, const AttributeValueGraph& avg,
                             const LocalStore& store,
                             const RecordingSelector& recording) {
  // visited ⊆ revealed.
  for (ValueId v : recording.visited()) {
    ASSERT_TRUE(recording.revealed().count(v));
  }
  // Every harvested record is a true record with its true values.
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    RecordId id = store.OriginalRecordId(slot);
    ASSERT_LT(id, table.num_records());
    std::span<const ValueId> local = store.RecordValues(slot);
    std::span<const ValueId> truth = table.record(id);
    ASSERT_EQ(std::vector<ValueId>(local.begin(), local.end()),
              std::vector<ValueId>(truth.begin(), truth.end()));
  }
  // Local statistics never exceed the truth: G_local ⊆ G (§2.4).
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    ASSERT_LE(store.LocalFrequency(v), table.value_frequency(v));
    ASSERT_LE(store.LocalDegree(v), avg.Degree(v));
  }
  ASSERT_LE(store.num_records(), table.num_records());
  ASSERT_GE(store.num_observations(), store.num_records());
  // G_local is the AVG of the harvested records, over the same value
  // ids (the catalog is copied in id order). LocalDegree must equal its
  // degrees exactly, and its edges must all be truth edges.
  Table harvested(table.schema());
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    ASSERT_EQ(harvested.mutable_catalog().Intern(
                  table.catalog().attribute_of(v), table.catalog().text_of(v)),
              v);
  }
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    std::span<const ValueId> values = store.RecordValues(slot);
    ASSERT_TRUE(harvested
                    .AddRecordFromValueIds(
                        std::vector<ValueId>(values.begin(), values.end()))
                    .ok());
  }
  AttributeValueGraph local_avg = AttributeValueGraph::Build(harvested);
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    ASSERT_EQ(store.LocalDegree(v), local_avg.Degree(v)) << "value " << v;
    for (ValueId u : local_avg.Neighbors(v)) {
      ASSERT_TRUE(avg.HasEdge(v, u))
          << "local edge " << v << "-" << u << " absent from truth AVG";
    }
  }
}

ValueId FirstQueriableSeed(const Table& table) {
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (table.value_frequency(v) > 0) return v;
  }
  ADD_FAILURE() << "table has no queriable value";
  return kInvalidValueId;
}

TEST(AvgInvariantsPropertyTest, SerialCrawlStateStaysASubsetOfTruth) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Table table = RandomTable(seed);
    AttributeValueGraph avg = AttributeValueGraph::Build(table);
    WebDbServer server(table, ServerOptions());
    LocalStore store;
    BfsSelector bfs;
    RecordingSelector recording(bfs);
    CrawlEngine crawler(server, recording, store, CrawlOptions{});
    crawler.AddSeed(FirstQueriableSeed(table));
    // Crawl in budget slices; re-check every invariant after each one.
    for (uint64_t budget = 5;; budget += 5) {
      crawler.set_max_rounds(budget);
      StatusOr<CrawlResult> result = crawler.Run();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      CheckLocalSubsetOfTruth(table, avg, store, recording);
      if (result->stop_reason != StopReason::kRoundBudget) break;
    }
    // A full BFS crawl of a connected-from-seed component reveals every
    // value it visits and visits only revealed ones; final store must
    // hold at least the seed's records.
    ASSERT_GT(store.num_records(), 0u);
  }
}

TEST(AvgInvariantsPropertyTest, ParallelCrawlStateStaysASubsetOfTruth) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Table table = RandomTable(seed);
    AttributeValueGraph avg = AttributeValueGraph::Build(table);
    WebDbServer server(table, ServerOptions());
    LocalStore store;
    BfsSelector bfs;
    RecordingSelector recording(bfs);
    CrawlEngine crawler(server, recording, store, CrawlOptions{},
                        EngineOptions{.batch = 3});
    crawler.AddSeed(FirstQueriableSeed(table));
    for (uint64_t budget = 5;; budget += 5) {
      crawler.set_max_rounds(budget);
      StatusOr<CrawlResult> result = crawler.Run();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      CheckLocalSubsetOfTruth(table, avg, store, recording);
      if (result->stop_reason != StopReason::kRoundBudget) break;
    }
    ASSERT_GT(store.num_records(), 0u);
  }
}

}  // namespace
}  // namespace deepcrawl
