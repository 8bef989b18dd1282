// Tests of the keyword-interface crawl mode (§2.2 "fading schema").

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/naive_selectors.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;

// "eastwood" appears as an actor in two records and as a director in a
// third; a typed query sees one column, a keyword query sees all.
Table CrossAttributeTable() {
  return MakeTable({
      {{"Actor", "eastwood"}, {"Title", "t1"}},
      {{"Actor", "eastwood"}, {"Title", "t2"}},
      {{"Director", "eastwood"}, {"Title", "t3"}},
      {{"Actor", "other"}, {"Title", "t4"}},
  });
}

TEST(KeywordModeTest, KeywordQueryOfValueMatchesAllColumns) {
  Table table = CrossAttributeTable();
  WebDbServer server(table, ServerOptions{});
  ValueId actor_eastwood = GetValueId(table, "Actor", "eastwood");
  StatusOr<ResultPage> page =
      server.FetchPageKeywordOf(actor_eastwood, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->records.size(), 3u);  // both credits
}

TEST(KeywordModeTest, UnknownValueIdYieldsEmptyPage) {
  Table table = CrossAttributeTable();
  WebDbServer server(table, ServerOptions{});
  StatusOr<ResultPage> page = server.FetchPageKeywordOf(9999, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->records.empty());
  EXPECT_EQ(server.communication_rounds(), 1u);
}

TEST(KeywordModeTest, KeywordCrawlReachesAcrossColumns) {
  // Typed crawl from Actor=eastwood cannot reach t3 (the director-only
  // record shares no typed value with the actor records); the keyword
  // crawl bridges the columns.
  Table table = CrossAttributeTable();
  ValueId seed = GetValueId(table, "Actor", "eastwood");

  WebDbServer server(table, ServerOptions{});
  {
    LocalStore store;
    BfsSelector selector;
    CrawlOptions options;  // typed interface
    CrawlEngine crawler(server, selector, store, options);
    crawler.AddSeed(seed);
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->records, 2u);
  }
  {
    server.ResetMeters();
    LocalStore store;
    BfsSelector selector;
    CrawlOptions options;
    options.use_keyword_interface = true;
    CrawlEngine crawler(server, selector, store, options);
    crawler.AddSeed(seed);
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->records, 3u);  // t3 reached through the keyword box
  }
}

TEST(KeywordModeTest, KeywordCrawlCoversAtLeastTypedCrawl) {
  // Property: on any database, keyword-mode reachability includes
  // typed-mode reachability (keyword results are a superset per query).
  Table table = MakeTable({
      {{"A", "x"}, {"B", "y"}},
      {{"A", "y"}, {"B", "z"}},  // "y" under a different attribute
      {{"A", "q"}, {"B", "q"}},
  });
  for (ValueId seed = 0; seed < table.num_distinct_values(); ++seed) {
    WebDbServer server(table, ServerOptions{});
    uint64_t typed_records, keyword_records;
    {
      LocalStore store;
      BfsSelector selector;
      CrawlEngine crawler(server, selector, store, CrawlOptions{});
      crawler.AddSeed(seed);
      typed_records = crawler.Run()->records;
    }
    {
      LocalStore store;
      BfsSelector selector;
      CrawlOptions options;
      options.use_keyword_interface = true;
      CrawlEngine crawler(server, selector, store, options);
      crawler.AddSeed(seed);
      keyword_records = crawler.Run()->records;
    }
    EXPECT_GE(keyword_records, typed_records) << "seed " << seed;
  }
}

}  // namespace
}  // namespace deepcrawl
