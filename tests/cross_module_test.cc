// Cross-module consistency: the same quantities computed by independent
// code paths must agree.
//
//   * After an exhaustive crawl, the LocalStore's incremental local
//     graph must equal the offline AttributeValueGraph of the reachable
//     records (degrees, frequencies).
//   * The crawler's harvested set must equal the reachability fixed
//     point, which must equal the connectivity component of the seed.
//   * The server's full-retrieval costs must sum to the cost of an
//     "issue every value once" sweep.

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/naive_selectors.h"
#include "src/datagen/workload_config.h"
#include "src/graph/attribute_value_graph.h"
#include "src/graph/components.h"
#include "src/graph/reachability.h"
#include "src/server/web_db_server.h"

namespace deepcrawl {
namespace {

Table MakeDb(uint64_t seed) {
  SyntheticDbConfig config;
  config.name = "xmod";
  config.num_records = 300;
  config.seed = seed;
  config.attributes = {
      {.name = "P", .num_distinct = 30, .zipf_exponent = 1.1},
      {.name = "Q",
       .num_distinct = 150,
       .zipf_exponent = 0.6,
       .min_per_record = 1,
       .max_per_record = 3},
  };
  StatusOr<Table> table = GenerateTable(config);
  DEEPCRAWL_CHECK(table.ok());
  return std::move(*table);
}

class CrossModuleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossModuleTest, LocalGraphMatchesOfflineGraphAfterFullCrawl) {
  Table db = MakeDb(GetParam());
  WebDbServer server(db, ServerOptions{});
  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  crawler.AddSeed(0);
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());

  // Offline AVG of the reachable sub-database.
  InvertedIndex index(db);
  ReachabilityReport reach =
      ComputeReachability(db, index, std::vector<ValueId>{0});
  ASSERT_EQ(result->records, reach.reachable_records);

  Schema sub_schema;
  for (const AttributeDef& attr : db.schema().attributes()) {
    ASSERT_TRUE(sub_schema.AddAttribute(attr.name, attr.multi_valued).ok());
  }
  Table reachable_db(std::move(sub_schema));
  for (RecordId r = 0; r < db.num_records(); ++r) {
    if (!reach.reachable_record[r]) continue;
    std::vector<Cell> cells;
    for (ValueId v : db.record(r)) {
      cells.push_back(Cell{db.catalog().attribute_of(v),
                           std::string(db.catalog().text_of(v))});
    }
    ASSERT_TRUE(reachable_db.AddRecord(cells).ok());
  }
  AttributeValueGraph offline = AttributeValueGraph::Build(reachable_db);

  // Compare per-value: the crawler's incremental statistics vs offline.
  // Value identity is by (attribute, text); iterate the sub-database's
  // catalog and translate back into the crawl-side id space.
  for (ValueId sub_v = 0; sub_v < reachable_db.num_distinct_values();
       ++sub_v) {
    AttributeId attr = reachable_db.catalog().attribute_of(sub_v);
    const std::string_view text = reachable_db.catalog().text_of(sub_v);
    ValueId crawl_v = db.catalog().Find(attr, text);
    ASSERT_NE(crawl_v, kInvalidValueId);
    EXPECT_EQ(store.LocalFrequency(crawl_v),
              reachable_db.value_frequency(sub_v))
        << "frequency mismatch for " << text;
    EXPECT_EQ(store.LocalDegree(crawl_v), offline.Degree(sub_v))
        << "degree mismatch for " << text;
  }
}

TEST_P(CrossModuleTest, ReachabilityMatchesConnectivityComponent) {
  Table db = MakeDb(GetParam());
  InvertedIndex index(db);
  ConnectivityReport connectivity = AnalyzeConnectivity(db);

  // For a handful of seeds: the reachable record set is exactly the
  // records of the seed's connected component.
  for (ValueId seed : {ValueId{0}, ValueId{5}, ValueId{17}}) {
    if (seed >= db.num_distinct_values()) continue;
    ReachabilityReport reach =
        ComputeReachability(db, index, std::vector<ValueId>{seed});
    // Find a record containing the seed to learn its component.
    auto postings = index.Postings(seed);
    ASSERT_FALSE(postings.empty());
    uint32_t component = connectivity.record_component[postings[0]];
    size_t component_records = 0;
    for (RecordId r = 0; r < db.num_records(); ++r) {
      bool in_component = connectivity.record_component[r] == component;
      EXPECT_EQ(static_cast<bool>(reach.reachable_record[r]), in_component)
          << "record " << r << " seed " << seed;
      if (in_component) ++component_records;
    }
    EXPECT_EQ(reach.reachable_records, component_records);
  }
}

TEST_P(CrossModuleTest, SweepCostEqualsSumOfFullRetrievalCosts) {
  Table db = MakeDb(GetParam());
  ServerOptions options;
  options.page_size = 4;
  options.result_limit = 9;
  WebDbServer server(db, options);
  uint64_t predicted = 0;
  for (ValueId v = 0; v < db.num_distinct_values(); ++v) {
    predicted += server.FullRetrievalCost(v);
  }
  server.ResetMeters();
  for (ValueId v = 0; v < db.num_distinct_values(); ++v) {
    for (uint32_t page = 0;; ++page) {
      StatusOr<ResultPage> fetched = server.FetchPage(v, page);
      ASSERT_TRUE(fetched.ok());
      if (!fetched->has_more) break;
    }
  }
  EXPECT_EQ(server.communication_rounds(), predicted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossModuleTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace deepcrawl
