// End-to-end tests of the serial CrawlEngine loop against small fixture
// databases, including a replay of the paper's Example 2.1.

#include "src/crawler/crawl_engine.h"

#include <gtest/gtest.h>

#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeFigure1Table;
using testing_util::MakeTable;

ServerOptions SmallPages() {
  ServerOptions options;
  options.page_size = 2;
  return options;
}

TEST(CrawlerTest, Figure1CrawlFromA2ReachesEverything) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  crawler.AddSeed(GetValueId(table, "A", "a2"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The AVG of Figure 1 is connected, so the whole database is
  // reachable from a2.
  EXPECT_EQ(result->records, table.num_records());
  EXPECT_EQ(result->stop_reason, StopReason::kFrontierExhausted);
  EXPECT_GT(result->rounds, 0u);
  EXPECT_GT(result->queries, 0u);
}

TEST(CrawlerTest, FirstQueryHarvestsSeedNeighborhood) {
  // Example 2.1: querying a2 returns three records and reveals exactly
  // {c1, b2, c2, b3} as new neighbors.
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  BfsSelector selector;
  CrawlOptions options;
  options.max_rounds = 2;  // 3 matched records, 2 per page -> 2 rounds
  CrawlEngine crawler(server, selector, store, options);
  crawler.AddSeed(GetValueId(table, "A", "a2"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, 3u);  // the three a2 records
  EXPECT_EQ(store.LocalFrequency(GetValueId(table, "B", "b2")), 2u);
  EXPECT_EQ(store.LocalFrequency(GetValueId(table, "C", "c2")), 2u);
  EXPECT_EQ(store.LocalFrequency(GetValueId(table, "B", "b3")), 1u);
  EXPECT_EQ(store.LocalFrequency(GetValueId(table, "C", "c1")), 1u);
  // a1's record was not reachable yet.
  EXPECT_EQ(store.LocalFrequency(GetValueId(table, "A", "a1")), 0u);
}

TEST(CrawlerTest, DisconnectedComponentStaysUnreached) {
  // Two data islands (§4 Limitation 2): a seed in one island never
  // reaches the other.
  Table table = MakeTable({
      {{"X", "x1"}, {"Y", "y1"}},
      {{"X", "x1"}, {"Y", "y2"}},
      {{"X", "x2"}, {"Y", "y3"}},
  });
  WebDbServer server(table, SmallPages());
  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  crawler.AddSeed(GetValueId(table, "X", "x1"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, 2u);
  EXPECT_EQ(result->stop_reason, StopReason::kFrontierExhausted);
}

TEST(CrawlerTest, RoundBudgetStopsMidCrawl) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  BfsSelector selector;
  CrawlOptions options;
  options.max_rounds = 1;
  CrawlEngine crawler(server, selector, store, options);
  crawler.AddSeed(GetValueId(table, "A", "a2"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stop_reason, StopReason::kRoundBudget);
  EXPECT_EQ(result->rounds, 1u);
  EXPECT_LE(result->records, 2u);  // at most one page of 2
}

TEST(CrawlerTest, TargetRecordsStopsEarly) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  BfsSelector selector;
  CrawlOptions options;
  options.target_records = 3;
  CrawlEngine crawler(server, selector, store, options);
  crawler.AddSeed(GetValueId(table, "A", "a2"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stop_reason, StopReason::kTargetReached);
  EXPECT_GE(result->records, 3u);
}

TEST(CrawlerTest, ResumeAfterBudgetContinues) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  BfsSelector selector;
  CrawlOptions options;
  options.max_rounds = 1;
  CrawlEngine crawler(server, selector, store, options);
  crawler.AddSeed(GetValueId(table, "A", "a2"));

  ASSERT_TRUE(crawler.Run().ok());
  // Second run continues where the first stopped; still capped.
  StatusOr<CrawlResult> second = crawler.Run();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stop_reason, StopReason::kRoundBudget);
  EXPECT_EQ(second->rounds, 1u);  // cumulative meter unchanged by re-run
}

TEST(CrawlerTest, SeedsAreDeduplicated) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  ValueId a2 = GetValueId(table, "A", "a2");
  crawler.AddSeed(a2);
  crawler.AddSeed(a2);  // ignored

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  // One a2 query only: queries equals distinct values queried.
  EXPECT_EQ(result->records, table.num_records());
}

TEST(CrawlerTest, TraceIsMonotoneAndEndsAtTotals) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  crawler.AddSeed(GetValueId(table, "C", "c2"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  const auto& points = result->trace.points();
  ASSERT_FALSE(points.empty());
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].rounds, points[i - 1].rounds);
    EXPECT_GE(points[i].records, points[i - 1].records);
  }
  EXPECT_EQ(points.back().rounds, result->rounds);
  EXPECT_EQ(points.back().records, result->records);
}

TEST(CrawlerTest, EveryQueryCostsAtLeastOneRound) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, SmallPages());
  LocalStore store;
  DfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  crawler.AddSeed(GetValueId(table, "A", "a2"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->rounds, result->queries);
  EXPECT_EQ(result->rounds, server.communication_rounds());
  EXPECT_EQ(result->queries, server.queries_issued());
}

}  // namespace
}  // namespace deepcrawl
