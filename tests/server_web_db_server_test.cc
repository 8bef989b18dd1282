// Tests of the simulated Web database server: pagination, cost
// accounting, result limits, count reporting — the §2.3/§5.4 mechanics.

#include "src/server/web_db_server.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeFigure1Table;
using testing_util::MakeTable;

// A table with one hub value matching `n` records.
Table HubTable(int n) {
  std::vector<testing_util::Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({{"Brand", "toyota"}, {"Vin", "v" + std::to_string(i)}});
  }
  return MakeTable(rows);
}

TEST(WebDbServerTest, PaginationSplitsResults) {
  Table table = HubTable(95);
  ServerOptions options;
  options.page_size = 10;
  WebDbServer server(table, options);
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  // Definition 2.3's example: 95 matches at 10 per page = 10 rounds.
  uint32_t pages = 0;
  for (uint32_t p = 0;; ++p) {
    StatusOr<ResultPage> page = server.FetchPage(toyota, p);
    ASSERT_TRUE(page.ok());
    ++pages;
    if (p < 9) {
      EXPECT_EQ(page->records.size(), 10u);
      EXPECT_TRUE(page->has_more);
    } else {
      EXPECT_EQ(page->records.size(), 5u);
      EXPECT_FALSE(page->has_more);
      break;
    }
  }
  EXPECT_EQ(pages, 10u);
  EXPECT_EQ(server.communication_rounds(), 10u);
  EXPECT_EQ(server.queries_issued(), 1u);
  EXPECT_EQ(server.FullRetrievalCost(toyota), 10u);
}

TEST(WebDbServerTest, TotalCountReportedWhenEnabled) {
  Table table = HubTable(42);
  ServerOptions options;
  options.page_size = 10;
  options.reports_total_count = true;
  WebDbServer server(table, options);
  StatusOr<ResultPage> page =
      server.FetchPage(GetValueId(table, "Brand", "toyota"), 0);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(page->total_matches.has_value());
  EXPECT_EQ(*page->total_matches, 42u);
}

TEST(WebDbServerTest, TotalCountHiddenWhenDisabled) {
  Table table = HubTable(5);
  ServerOptions options;
  options.reports_total_count = false;
  WebDbServer server(table, options);
  StatusOr<ResultPage> page =
      server.FetchPage(GetValueId(table, "Brand", "toyota"), 0);
  ASSERT_TRUE(page.ok());
  EXPECT_FALSE(page->total_matches.has_value());
}

TEST(WebDbServerTest, ResultLimitCapsRetrieval) {
  // §5.4: a source reporting 5000 matches may only expose 20 pages.
  Table table = HubTable(200);
  ServerOptions options;
  options.page_size = 10;
  options.result_limit = 50;
  WebDbServer server(table, options);
  ValueId toyota = GetValueId(table, "Brand", "toyota");

  uint32_t retrieved = 0;
  uint32_t pages = 0;
  for (uint32_t p = 0;; ++p) {
    StatusOr<ResultPage> page = server.FetchPage(toyota, p);
    ASSERT_TRUE(page.ok());
    retrieved += page->records.size();
    ++pages;
    // The reported count is the full match count, not the limit.
    EXPECT_EQ(page->total_matches.value_or(0), 200u);
    if (!page->has_more) break;
  }
  EXPECT_EQ(retrieved, 50u);
  EXPECT_EQ(pages, 5u);
  EXPECT_EQ(server.FullRetrievalCost(toyota), 5u);
  // Fetching past the limit is out of range.
  EXPECT_EQ(server.FetchPage(toyota, 5).status().code(),
            StatusCode::kOutOfRange);
}

TEST(WebDbServerTest, UnknownValueCostsARoundAndReturnsEmpty) {
  Table table = HubTable(3);
  WebDbServer server(table, ServerOptions{});
  StatusOr<ResultPage> page = server.FetchPage(99999, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->records.empty());
  EXPECT_FALSE(page->has_more);
  EXPECT_EQ(server.communication_rounds(), 1u);
  EXPECT_EQ(server.FullRetrievalCost(99999), 1u);
}

TEST(WebDbServerTest, KeywordQueryUnionsAcrossAttributes) {
  // The same text under two attributes; a keyword query matches both.
  Table table = MakeTable({
      {{"Actor", "eastwood"}, {"Title", "t1"}},
      {{"Director", "eastwood"}, {"Title", "t2"}},
      {{"Actor", "someone"}, {"Title", "t3"}},
  });
  WebDbServer server(table, ServerOptions{});
  StatusOr<ResultPage> page =
      server.FetchPageKeywordOf(GetValueId(table, "Actor", "eastwood"), 0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->records.size(), 2u);
  EXPECT_EQ(page->total_matches.value_or(0), 2u);
}

TEST(WebDbServerTest, KeywordQueryDeduplicatesRecords) {
  // One record matching under two attributes is returned once.
  Table table = MakeTable({
      {{"Actor", "eastwood"}, {"Director", "eastwood"}},
  });
  WebDbServer server(table, ServerOptions{});
  StatusOr<ResultPage> page =
      server.FetchPageKeywordOf(GetValueId(table, "Director", "eastwood"), 0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->records.size(), 1u);
}

TEST(WebDbServerTest, MetersResetIndependently) {
  Table table = HubTable(3);
  WebDbServer server(table, ServerOptions{});
  ASSERT_TRUE(server.FetchPage(0, 0).ok());
  EXPECT_GT(server.communication_rounds(), 0u);
  server.ResetMeters();
  EXPECT_EQ(server.communication_rounds(), 0u);
  EXPECT_EQ(server.queries_issued(), 0u);
}

TEST(WebDbServerTest, ReturnedRecordsCarryFullTuples) {
  Table table = MakeFigure1Table();
  WebDbServer server(table, ServerOptions{});
  ValueId b4 = GetValueId(table, "B", "b4");
  StatusOr<ResultPage> page = server.FetchPage(b4, 0);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->records.size(), 1u);
  // Record (a3, b4, c2): three values.
  EXPECT_EQ(page->records[0].values.size(), 3u);
}

TEST(WebDbServerTest, ExactPageBoundary) {
  Table table = HubTable(20);
  ServerOptions options;
  options.page_size = 10;
  WebDbServer server(table, options);
  ValueId toyota = GetValueId(table, "Brand", "toyota");
  StatusOr<ResultPage> last = server.FetchPage(toyota, 1);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->records.size(), 10u);
  EXPECT_FALSE(last->has_more);
  EXPECT_EQ(server.FetchPage(toyota, 2).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace deepcrawl
