// Tests of the Chao1 online size estimator and the observation
// statistics feeding it.

#include "src/estimate/chao.h"

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/naive_selectors.h"
#include "src/datagen/workload_config.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

std::vector<ValueId> V(std::initializer_list<ValueId> ids) { return ids; }

TEST(ObservationStatsTest, AddAndDuplicateCounting) {
  LocalStore store;
  store.AddRecord(10, V({1}));
  store.AddRecord(20, V({2}));
  EXPECT_EQ(store.num_observations(), 2u);
  EXPECT_TRUE(store.ObserveIfStored(10));
  EXPECT_TRUE(store.ObserveIfStored(10));
  EXPECT_EQ(store.num_observations(), 4u);
  EXPECT_EQ(store.RecordsObservedTimes(1), 1u);  // record 20
  EXPECT_EQ(store.RecordsObservedTimes(2), 0u);
  EXPECT_EQ(store.RecordsObservedTimes(3), 1u);  // record 10
}

TEST(ObservationStatsTest, UnknownRecordIsNotObserved) {
  LocalStore store;
  EXPECT_FALSE(store.ObserveIfStored(7));
  store.AddRecord(10, V({1}));
  EXPECT_FALSE(store.ObserveIfStored(7));
  EXPECT_FALSE(store.ObserveIfStored(11));
  EXPECT_EQ(store.num_observations(), 1u);
  EXPECT_EQ(store.RecordsObservedTimes(1), 1u);
  EXPECT_FALSE(store.ContainsRecord(7));
}

TEST(Chao1Test, ClassicFormula) {
  LocalStore store;
  // 3 singletons, 1 doubleton, 1 tripleton: S_obs = 5.
  for (RecordId r = 0; r < 5; ++r) store.AddRecord(r, V({r}));
  EXPECT_TRUE(store.ObserveIfStored(3));
  EXPECT_TRUE(store.ObserveIfStored(4));
  EXPECT_TRUE(store.ObserveIfStored(4));
  ChaoEstimate estimate = Chao1Estimate(store);
  EXPECT_EQ(estimate.observed_records, 5u);
  EXPECT_EQ(estimate.singletons, 3u);
  EXPECT_EQ(estimate.doubletons, 1u);
  // Bias-corrected: 5 + 3*2 / (2*(1+1)) = 6.5.
  EXPECT_DOUBLE_EQ(estimate.estimated_total, 6.5);
  EXPECT_NEAR(estimate.estimated_coverage, 5.0 / 6.5, 1e-12);
}

TEST(Chao1Test, EmptyStore) {
  LocalStore store;
  ChaoEstimate estimate = Chao1Estimate(store);
  EXPECT_EQ(estimate.observed_records, 0u);
  EXPECT_EQ(estimate.estimated_total, 0.0);
  EXPECT_EQ(estimate.estimated_coverage, 0.0);
}

TEST(Chao1Test, NoSingletonsMeansSaturated) {
  LocalStore store;
  store.AddRecord(0, V({1}));
  EXPECT_TRUE(store.ObserveIfStored(0));
  ChaoEstimate estimate = Chao1Estimate(store);
  EXPECT_DOUBLE_EQ(estimate.estimated_total, 1.0);
  EXPECT_DOUBLE_EQ(estimate.estimated_coverage, 1.0);
}

TEST(Chao1Test, CrawlFedEstimateIsInTheRightBallpark) {
  SyntheticDbConfig config;
  config.name = "chao-target";
  config.num_records = 1500;
  config.seed = 8;
  config.attributes = {
      {.name = "A", .num_distinct = 80, .zipf_exponent = 0.9},
      {.name = "B", .num_distinct = 700, .zipf_exponent = 0.6},
  };
  StatusOr<Table> table = GenerateTable(config);
  ASSERT_TRUE(table.ok());
  WebDbServer server(*table, ServerOptions{});
  LocalStore store;
  RandomSelector selector(3);
  CrawlOptions options;
  options.max_rounds = 150;
  CrawlEngine crawler(server, selector, store, options);
  crawler.AddSeed(0);
  ASSERT_TRUE(crawler.Run().ok());

  ChaoEstimate estimate = Chao1Estimate(store);
  // The crawl saw only part of the database, with duplicates.
  ASSERT_GT(estimate.observations, estimate.observed_records);
  EXPECT_GE(estimate.estimated_total,
            static_cast<double>(estimate.observed_records));
  // Order-of-magnitude sanity: between what was seen and ~3x the truth.
  EXPECT_LT(estimate.estimated_total, 3.0 * 1500);
}

TEST(Chao1Test, EstimateConvergesToTruthOnFullCrawl) {
  Table table = testing_util::MakeFigure1Table();
  WebDbServer server(table, ServerOptions{});
  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  crawler.AddSeed(testing_util::GetValueId(table, "A", "a2"));
  ASSERT_TRUE(crawler.Run().ok());
  ChaoEstimate estimate = Chao1Estimate(store);
  EXPECT_EQ(estimate.observed_records, table.num_records());
  // A full crawl of Figure 1 observes every record at least twice (each
  // record has 3 values, all queried), so f1 = 0 and the estimator
  // lands exactly on the truth.
  EXPECT_EQ(estimate.singletons, 0u);
  EXPECT_DOUBLE_EQ(estimate.estimated_total,
                   static_cast<double>(table.num_records()));
}

}  // namespace
}  // namespace deepcrawl
