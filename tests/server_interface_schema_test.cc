// Tests of the interface-schema restriction (Definition 2.2: queriable
// attributes Aq vs result attributes Ar).

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/naive_selectors.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;

// Books: queriable by Title only (like the paper's Amazon books
// example); Author appears in results but the form has no author field.
Table BookTable() {
  return MakeTable({
      {{"Title", "t1"}, {"Author", "smith"}},
      {{"Title", "t2"}, {"Author", "smith"}},
      {{"Title", "t3"}, {"Author", "jones"}},
  });
}

ServerOptions TitleOnly(const Table& table) {
  ServerOptions options;
  StatusOr<AttributeId> title = table.schema().FindAttribute("Title");
  DEEPCRAWL_CHECK(title.ok());
  options.queriable_attributes = {*title};
  return options;
}

TEST(InterfaceSchemaTest, DefaultEverythingQueriable) {
  Table table = BookTable();
  WebDbServer server(table, ServerOptions{});
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    EXPECT_TRUE(server.IsQueriableValue(v));
  }
  EXPECT_FALSE(server.IsQueriableValue(9999));
}

TEST(InterfaceSchemaTest, MaskRestrictsQueriability) {
  Table table = BookTable();
  WebDbServer server(table, TitleOnly(table));
  EXPECT_TRUE(server.IsQueriableValue(GetValueId(table, "Title", "t1")));
  EXPECT_FALSE(
      server.IsQueriableValue(GetValueId(table, "Author", "smith")));
}

TEST(InterfaceSchemaTest, QueryOnUnqueriableAttributeReturnsNothing) {
  Table table = BookTable();
  WebDbServer server(table, TitleOnly(table));
  ValueId smith = GetValueId(table, "Author", "smith");
  StatusOr<ResultPage> page = server.FetchPage(smith, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->records.empty());  // the engine still spends the round
}

TEST(InterfaceSchemaTest, CrawlerKeepsUnqueriableValuesOutOfFrontier) {
  // Titles are unique: from one title the crawler retrieves one record,
  // sees the author value, but cannot query it — the crawl ends after a
  // single query even though the author links all records.
  Table table = BookTable();
  WebDbServer server(table, TitleOnly(table));
  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  crawler.AddSeed(GetValueId(table, "Title", "t1"));
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, 1u);
  EXPECT_EQ(result->queries, 1u);
  // The author value WAS extracted into the local store (result schema
  // still carries it).
  EXPECT_EQ(store.LocalFrequency(GetValueId(table, "Author", "smith")), 1u);
}

TEST(InterfaceSchemaTest, WiderInterfaceWidensCoverage) {
  Table table = BookTable();
  // Title-only: stuck at 1 record. Full interface: author bridges all
  // smith books.
  {
    WebDbServer server(table, TitleOnly(table));
    LocalStore store;
    BfsSelector selector;
    CrawlEngine crawler(server, selector, store, CrawlOptions{});
    crawler.AddSeed(GetValueId(table, "Title", "t1"));
    EXPECT_EQ(crawler.Run()->records, 1u);
  }
  {
    WebDbServer server(table, ServerOptions{});
    LocalStore store;
    BfsSelector selector;
    CrawlEngine crawler(server, selector, store, CrawlOptions{});
    crawler.AddSeed(GetValueId(table, "Title", "t1"));
    EXPECT_EQ(crawler.Run()->records, 2u);  // both smith books
  }
}

TEST(InterfaceSchemaDeathTest, OutOfRangeAttributeAborts) {
  Table table = BookTable();
  ServerOptions options;
  options.queriable_attributes = {static_cast<AttributeId>(42)};
  EXPECT_DEATH(WebDbServer(table, options), "out of range");
}

}  // namespace
}  // namespace deepcrawl
