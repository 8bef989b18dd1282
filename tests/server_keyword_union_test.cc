// Tests of the keyword-box token dictionary behind FetchPageKeywordOf:
// the all-attribute union a keyword query answers with (§2.2's "the
// site's query processor decides which column matches") and its
// precomputed postings. Focus cases: unknown terms, duplicate terms (one
// text under many attributes), and page boundaries of merged result
// sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;
using testing_util::Row;

// A bibliography-shaped table where "smith" appears as both an author
// and an editor — the same raw text under two attributes.
Table CrossAttributeTable() {
  return MakeTable({
      {{"Author", "smith"}, {"Editor", "jones"}, {"Title", "t1"}},
      {{"Author", "brown"}, {"Editor", "smith"}, {"Title", "t2"}},
      {{"Author", "smith"}, {"Editor", "smith"}, {"Title", "t3"}},
      {{"Author", "davis"}, {"Editor", "king"}, {"Title", "t4"}},
  });
}

TEST(KeywordUnionTest, UnknownTermAnswersEmptyAndStillCosts) {
  Table table = CrossAttributeTable();
  WebDbServer server(table, ServerOptions{});
  // A value id past the catalog names a term the site does not know.
  StatusOr<ResultPage> page =
      server.FetchPageKeywordOf(table.num_distinct_values(), 0);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->records.empty());
  EXPECT_FALSE(page->has_more);
  // A miss is still a conversation with the site: one round, one query.
  EXPECT_EQ(server.communication_rounds(), 1u);
  EXPECT_EQ(server.queries_issued(), 1u);
}

TEST(KeywordUnionTest, DuplicateTermUnionsAttributesWithoutDoubleCount) {
  Table table = CrossAttributeTable();
  ServerOptions options;
  options.reports_total_count = true;
  WebDbServer server(table, options);

  // "smith" matches records 0 and 2 as Author and 1 and 2 as Editor:
  // the union is {0, 1, 2}, with record 2 reported once, whichever of
  // the two values addresses the query.
  ValueId author = GetValueId(table, "Author", "smith");
  ValueId editor = GetValueId(table, "Editor", "smith");
  for (ValueId value : {author, editor}) {
    StatusOr<ResultPage> page = server.FetchPageKeywordOf(value, 0);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(page->total_matches.has_value());
    EXPECT_EQ(*page->total_matches, 3u);
    ASSERT_EQ(page->records.size(), 3u);
    EXPECT_EQ(page->records[0].id, 0u);
    EXPECT_EQ(page->records[1].id, 1u);
    EXPECT_EQ(page->records[2].id, 2u);
  }

  // The dictionary knows the text spans two attributes and both interned
  // values resolve to the same merged postings.
  EXPECT_EQ(server.KeywordAttributeSpan(author), 2u);
  EXPECT_EQ(server.KeywordAttributeSpan(editor), 2u);
  ASSERT_EQ(server.KeywordPostings(author).size(), 3u);
  EXPECT_EQ(server.KeywordPostings(editor).size(), 3u);
  EXPECT_EQ(server.KeywordPostings(author).data(),
            server.KeywordPostings(editor).data());
}

TEST(KeywordUnionTest, SingleAttributeTokenAliasesIndexPostings) {
  Table table = CrossAttributeTable();
  WebDbServer server(table, ServerOptions{});
  ValueId jones = GetValueId(table, "Editor", "jones");
  EXPECT_EQ(server.KeywordAttributeSpan(jones), 1u);
  EXPECT_EQ(server.KeywordPostings(jones).data(),
            server.index().Postings(jones).data());
}

TEST(KeywordUnionTest, KeywordOfMatchesKeywordByText) {
  // Paged to the end, a keyword query returns exactly the records that
  // carry its text under any attribute: the sorted union of the index
  // postings of every value sharing that text.
  Table table = CrossAttributeTable();
  ServerOptions options;
  options.page_size = 2;
  options.reports_total_count = true;
  WebDbServer server(table, options);
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    std::vector<RecordId> want;
    for (ValueId u = 0; u < table.num_distinct_values(); ++u) {
      if (table.catalog().text_of(u) != table.catalog().text_of(v)) continue;
      std::span<const RecordId> postings = server.index().Postings(u);
      want.insert(want.end(), postings.begin(), postings.end());
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());

    std::vector<RecordId> got;
    for (uint32_t page_number = 0;; ++page_number) {
      StatusOr<ResultPage> page = server.FetchPageKeywordOf(v, page_number);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      EXPECT_EQ(page->total_matches, std::optional<uint32_t>(want.size()));
      for (const ReturnedRecord& record : page->records) {
        got.push_back(record.id);
      }
      if (!page->has_more) break;
    }
    EXPECT_EQ(got, want) << "value " << v;
  }
}

TEST(KeywordUnionTest, OutOfRangeValueIdAnswersEmpty) {
  Table table = CrossAttributeTable();
  WebDbServer server(table, ServerOptions{});
  ValueId bogus = table.num_distinct_values() + 17;
  EXPECT_EQ(server.KeywordAttributeSpan(bogus), 0u);
  EXPECT_TRUE(server.KeywordPostings(bogus).empty());
  StatusOr<ResultPage> page = server.FetchPageKeywordOf(bogus, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->records.empty());
}

TEST(KeywordUnionTest, MergedUnionPaginatesAcrossExactBoundary) {
  // 6 records match "shared" (3 per attribute, disjoint record sets);
  // page size 3 → exactly two full pages, no phantom third page.
  std::vector<Row> rows;
  for (int i = 0; i < 3; ++i) {
    rows.push_back({{"Author", "shared"}, {"Title", "a" + std::to_string(i)}});
  }
  for (int i = 0; i < 3; ++i) {
    rows.push_back({{"Author", "solo" + std::to_string(i)},
                    {"Editor", "shared"},
                    {"Title", "e" + std::to_string(i)}});
  }
  Table table = MakeTable(rows);
  ServerOptions options;
  options.page_size = 3;
  WebDbServer server(table, options);

  ValueId shared = GetValueId(table, "Editor", "shared");
  StatusOr<ResultPage> first = server.FetchPageKeywordOf(shared, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->records.size(), 3u);
  EXPECT_TRUE(first->has_more);
  StatusOr<ResultPage> second = server.FetchPageKeywordOf(shared, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->records.size(), 3u);
  EXPECT_FALSE(second->has_more);
  StatusOr<ResultPage> third = server.FetchPageKeywordOf(shared, 2);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kOutOfRange);
}

TEST(KeywordUnionTest, KeywordBoxIgnoresQueriableAttributeMask) {
  // The form only exposes Author, but the search box still reaches the
  // Editor column (a real site's keyword search is wider than its
  // advanced-search form).
  Table table = CrossAttributeTable();
  ServerOptions options;
  options.queriable_attributes = {
      static_cast<AttributeId>(*table.schema().FindAttribute("Author"))};
  WebDbServer server(table, options);
  ValueId jones = GetValueId(table, "Editor", "jones");
  EXPECT_FALSE(server.IsQueriableValue(jones));
  StatusOr<ResultPage> typed = server.FetchPage(jones, 0);
  ASSERT_TRUE(typed.ok());
  EXPECT_TRUE(typed->records.empty());
  StatusOr<ResultPage> keyword = server.FetchPageKeywordOf(jones, 0);
  ASSERT_TRUE(keyword.ok());
  EXPECT_EQ(keyword->records.size(), 1u);
}

TEST(KeywordUnionTest, TokenCountMatchesDistinctTexts) {
  // "smith" under two attributes is ONE token; every other text is its
  // own. CrossAttributeTable has 12 cells, one duplicated text.
  Table table = CrossAttributeTable();
  WebDbServer server(table, ServerOptions{});
  EXPECT_EQ(server.num_keyword_tokens(), table.num_distinct_values() - 1);
}

}  // namespace
}  // namespace deepcrawl
