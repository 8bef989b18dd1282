// Tests of the §3.4 query abortion heuristics.

#include "src/crawler/abort_policy.h"

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/naive_selectors.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::MakeTable;

QueryProgress MakeProgress(uint32_t total, uint32_t page_size,
                           uint32_t pages, uint32_t returned,
                           uint32_t fresh) {
  QueryProgress progress;
  progress.total_matches = total;
  progress.retrievable = total;
  progress.page_size = page_size;
  progress.pages_fetched = pages;
  progress.records_returned = returned;
  progress.new_records = fresh;
  progress.has_more = true;
  return progress;
}

TEST(CountBasedAbortTest, ContinuesWhenNoCountAvailable) {
  CountBasedAbort policy(5.0);
  QueryProgress progress = MakeProgress(100, 10, 1, 10, 0);
  progress.total_matches.reset();
  EXPECT_TRUE(policy.ShouldContinue(progress));
}

TEST(CountBasedAbortTest, AbortsWhenRemainingHarvestRateLow) {
  // 100 matches, 10/page; after 5 pages: 50 returned, only 2 new.
  // Duplicate ratio 0.96; remaining 50 records over 5 rounds at 4%
  // freshness ~= 0.4 new/round < threshold 2.
  CountBasedAbort policy(2.0);
  EXPECT_FALSE(policy.ShouldContinue(MakeProgress(100, 10, 5, 50, 2)));
}

TEST(CountBasedAbortTest, ContinuesWhenMostRecordsAreNew) {
  CountBasedAbort policy(2.0);
  EXPECT_TRUE(policy.ShouldContinue(MakeProgress(100, 10, 5, 50, 48)));
}

TEST(CountBasedAbortTest, AbortsWhenNothingRemains) {
  CountBasedAbort policy(0.0);
  // records_returned == retrievable: remaining == 0.
  EXPECT_FALSE(policy.ShouldContinue(MakeProgress(50, 10, 5, 50, 50)));
}

TEST(CountBasedAbortTest, ZeroThresholdOtherwiseNeverAborts) {
  CountBasedAbort policy(0.0);
  EXPECT_TRUE(policy.ShouldContinue(MakeProgress(100, 10, 5, 50, 0)));
}

TEST(DuplicateRatioAbortTest, WaitsForMinimumPages) {
  DuplicateRatioAbort policy(/*min_pages=*/3, /*max_duplicate_fraction=*/0.5);
  EXPECT_TRUE(policy.ShouldContinue(MakeProgress(100, 10, 2, 20, 0)));
  EXPECT_FALSE(policy.ShouldContinue(MakeProgress(100, 10, 3, 30, 0)));
}

TEST(DuplicateRatioAbortTest, ToleratesFreshResults) {
  DuplicateRatioAbort policy(1, 0.5);
  EXPECT_TRUE(policy.ShouldContinue(MakeProgress(100, 10, 4, 40, 30)));
  EXPECT_FALSE(policy.ShouldContinue(MakeProgress(100, 10, 4, 40, 10)));
}

TEST(AbortPolicyIntegrationTest, AbortSavesRoundsOnDuplicateHeavyQuery) {
  // Database with a giant hub value: after the hub is drained once, a
  // second hub-like value mostly repeats the same records.
  std::vector<testing_util::Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({{"Hub", "h"},
                    {"AltHub", "g"},
                    {"Id", "r" + std::to_string(i)}});
  }
  // A couple of records only AltHub reaches.
  rows.push_back({{"AltHub", "g"}, {"Id", "only1"}});
  rows.push_back({{"AltHub", "g"}, {"Id", "only2"}});
  Table table = MakeTable(rows);

  ServerOptions server_options;
  server_options.page_size = 5;

  auto run_crawl = [&](AbortPolicy* policy) -> uint64_t {
    WebDbServer server(table, server_options);
    LocalStore store;
    BfsSelector selector;
    CrawlEngine crawler(server, selector, store, CrawlOptions{},
                        EngineOptions{}, policy);
    crawler.AddSeed(testing_util::GetValueId(table, "Hub", "h"));
    StatusOr<CrawlResult> result = crawler.Run();
    DEEPCRAWL_CHECK(result.ok());
    DEEPCRAWL_CHECK(result->records >= 40u);
    return result->rounds;
  };

  uint64_t rounds_without = run_crawl(nullptr);
  CountBasedAbort abort(1.0);
  uint64_t rounds_with = run_crawl(&abort);
  EXPECT_LT(rounds_with, rounds_without);
}

TEST(AbortPolicyIntegrationTest, AbortedQueryKeepsHarvestedRecords) {
  std::vector<testing_util::Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({{"Hub", "h"}, {"Id", "r" + std::to_string(i)}});
  }
  Table table = MakeTable(rows);
  ServerOptions server_options;
  server_options.page_size = 5;
  WebDbServer server(table, server_options);
  LocalStore store;
  BfsSelector selector;
  // Extremely aggressive: abort as soon as expected new / round < 100.
  CountBasedAbort abort(100.0);
  CrawlEngine crawler(server, selector, store, CrawlOptions{}, EngineOptions{},
                      &abort);
  crawler.AddSeed(testing_util::GetValueId(table, "Hub", "h"));
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  // First page of the hub query was harvested before the abort...
  EXPECT_GE(result->records, 5u);
}

TEST(CountBasedAbortDeathTest, NegativeThresholdAborts) {
  EXPECT_DEATH(CountBasedAbort(-1.0), "");
}

TEST(DuplicateRatioAbortDeathTest, InvalidFractionAborts) {
  EXPECT_DEATH(DuplicateRatioAbort(1, 1.5), "");
}

}  // namespace
}  // namespace deepcrawl
