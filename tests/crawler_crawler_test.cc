// End-to-end tests of the serial CrawlEngine loop against small fixture
// databases, including a replay of the paper's Example 2.1.

#include "src/crawler/crawl_engine.h"

#include <gtest/gtest.h>

#include <optional>

#include "src/crawler/abort_policy.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/retry_policy.h"
#include "src/datagen/workload_config.h"
#include "src/server/faulty_server.h"
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
  testing_util::CountingSource source(server);
  LocalStore store;
  DfsSelector selector;
  CrawlEngine crawler(source, selector, store, CrawlOptions{});
  crawler.AddSeed(GetValueId(table, "A", "a2"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->rounds, result->queries);
  EXPECT_EQ(result->rounds, source.fetches());
  EXPECT_EQ(result->queries, source.queries());
}

// The engine is the only cost meter. Its rounds must equal the fetch
// calls that reached its source, failed ones included, in every
// configuration; its queries must equal the page-0 calls wherever no
// fetch fails (a retried page 0 is a second call of the same query).
//
// The tap counts like CountingSource and also watches serial crawls for
// a drain cut short: a page-0 fetch that follows a page with a
// successor, or a crawl whose last page had one.
class DrainTap : public testing_util::CountingSource {
 public:
  using CountingSource::CountingSource;

  StatusOr<ResultPage> FetchPage(ValueId value,
                                 uint32_t page_number) override {
    return Note(page_number, CountingSource::FetchPage(value, page_number));
  }
  StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                          uint32_t page_number) override {
    return Note(page_number,
                CountingSource::FetchPageKeywordOf(value, page_number));
  }

  uint64_t cut_drains() const { return cut_drains_; }
  bool last_has_more() const { return last_has_more_; }

 private:
  StatusOr<ResultPage> Note(uint32_t page_number, StatusOr<ResultPage> page) {
    if (page_number == 0 && last_has_more_) ++cut_drains_;
    last_has_more_ = page.ok() && page->has_more;
    return page;
  }

  uint64_t cut_drains_ = 0;
  bool last_has_more_ = false;
};

struct MeterCase {
  const char* name;
  uint32_t batch = 1;
  bool flaky = false;
  bool keyword = false;
  bool count_abort = false;
  uint64_t target_records = 0;
};

TEST(CrawlEngineTest, RoundsEqualFetchesThatReachedTheSource) {
  SyntheticDbConfig config;
  config.name = "meter";
  config.num_records = 400;
  config.seed = 5;
  config.attributes = {
      {.name = "A", .num_distinct = 30, .zipf_exponent = 1.0},
      {.name = "B",
       .num_distinct = 200,
       .zipf_exponent = 0.7,
       .min_per_record = 1,
       .max_per_record = 3},
  };
  StatusOr<Table> table = GenerateTable(config);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ServerOptions server_options;
  server_options.page_size = 4;
  // deepcrawl_crawl's --fault-profile=flaky.
  FaultProfile flaky;
  flaky.unavailable_rate = 0.05;
  flaky.timeout_rate = 0.03;
  flaky.rate_limit_rate = 0.02;

  const MeterCase cases[] = {
      {.name = "in-process batch 1"},
      {.name = "in-process batch 8", .batch = 8},
      {.name = "flaky batch 1", .flaky = true},
      {.name = "flaky batch 8", .batch = 8, .flaky = true},
      {.name = "keyword", .keyword = true},
      {.name = "count-based abort", .count_abort = true},
      {.name = "target reached mid-drain", .target_records = 150},
  };
  for (const MeterCase& c : cases) {
    SCOPED_TRACE(c.name);
    WebDbServer server(*table, server_options);
    std::optional<FaultyServer> proxy;
    if (c.flaky) proxy.emplace(server, flaky, /*seed=*/7);
    DrainTap tap(proxy.has_value() ? static_cast<QueryInterface&>(*proxy)
                                   : server);
    LocalStore store;
    GreedyLinkSelector selector(store);
    CountBasedAbort abort_policy(/*min_harvest_rate=*/2.0);
    RetryPolicy retry((RetryPolicyConfig()));
    CrawlOptions options;
    options.use_keyword_interface = c.keyword;
    options.target_records = c.target_records;
    CrawlEngine engine(tap, selector, store, options,
                       EngineOptions{.batch = c.batch},
                       c.count_abort ? &abort_policy : nullptr,
                       c.flaky ? &retry : nullptr);
    engine.AddSeed(0);
    StatusOr<CrawlResult> result = engine.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    EXPECT_EQ(result->rounds, tap.fetches());
    if (c.flaky) {
      EXPECT_GT(result->resilience.transient_failures, 0u);
    } else {
      EXPECT_EQ(result->queries, tap.queries());
    }
    // Each case reaches the path it is named for.
    if (c.count_abort) {
      EXPECT_GT(tap.cut_drains(), 0u);
    }
    if (c.target_records > 0) {
      EXPECT_EQ(result->stop_reason, StopReason::kTargetReached);
      EXPECT_TRUE(tap.last_has_more());
    }
  }
}

}  // namespace
}  // namespace deepcrawl
