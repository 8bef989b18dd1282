// Property sweep: pagination/limit/cost invariants of WebDbServer over
// a grid of (page size, result limit) configurations on a generated
// database. Definition 2.3's cost model must hold exactly in every
// configuration.

#include <gtest/gtest.h>

#include <tuple>

#include "src/datagen/workload_config.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

class ServerPagingPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {
 protected:
  static Table MakeDb() {
    SyntheticDbConfig config;
    config.name = "paging";
    config.num_records = 300;
    config.seed = 77;
    config.attributes = {
        {.name = "Hub", .num_distinct = 10, .zipf_exponent = 1.2},
        {.name = "Tail", .num_distinct = 200, .zipf_exponent = 0.5},
    };
    StatusOr<Table> table = GenerateTable(config);
    DEEPCRAWL_CHECK(table.ok());
    return std::move(*table);
  }
};

TEST_P(ServerPagingPropertyTest, CostAndContentInvariants) {
  auto [page_size, result_limit] = GetParam();
  Table db = MakeDb();
  ServerOptions options;
  options.page_size = page_size;
  options.result_limit = result_limit;
  WebDbServer server(db, options);
  testing_util::CountingSource source(server);

  for (ValueId v = 0; v < db.num_distinct_values(); ++v) {
    uint32_t frequency = db.value_frequency(v);
    uint32_t retrievable =
        result_limit > 0 ? std::min(frequency, result_limit) : frequency;

    const uint64_t rounds_before = source.fetches();
    uint32_t retrieved = 0;
    uint32_t pages = 0;
    RecordId previous = 0;
    bool first_record = true;
    for (uint32_t page = 0;; ++page) {
      StatusOr<ResultPage> fetched = source.FetchPage(v, page);
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
      ++pages;
      // Page content invariants.
      ASSERT_LE(fetched->records.size(), page_size);
      ASSERT_EQ(fetched->total_matches.value_or(0), frequency);
      for (const ReturnedRecord& record : fetched->records) {
        // Records arrive in ascending id order across pages, without
        // repetition, and actually contain the queried value.
        if (!first_record) {
          ASSERT_GT(record.id, previous);
        }
        previous = record.id;
        first_record = false;
        auto values = db.record(record.id);
        ASSERT_TRUE(std::binary_search(values.begin(), values.end(), v));
        ++retrieved;
      }
      if (!fetched->has_more) break;
      ASSERT_EQ(fetched->records.size(), page_size)
          << "only the last page may be short";
    }

    // Definition 2.3: rounds = ceil(retrievable / k), min 1.
    uint32_t expected_rounds =
        retrievable == 0 ? 1 : (retrievable + page_size - 1) / page_size;
    EXPECT_EQ(retrieved, retrievable) << "value " << v;
    EXPECT_EQ(pages, expected_rounds) << "value " << v;
    EXPECT_EQ(source.fetches() - rounds_before, expected_rounds);
    EXPECT_EQ(server.FullRetrievalCost(v), expected_rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServerPagingPropertyTest,
    ::testing::Combine(::testing::Values(1u, 3u, 10u, 100u),
                       ::testing::Values(0u, 1u, 7u, 50u)),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, uint32_t>>&
           info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_limit" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace deepcrawl
