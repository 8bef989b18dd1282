// Tests for the relational substrate: Schema, ValueCatalog, Table.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/relation/schema.h"
#include "src/relation/table.h"
#include "src/relation/value_catalog.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::MakeFigure1Table;
using testing_util::MakeTable;

TEST(SchemaTest, AddAndFindAttributes) {
  Schema schema;
  StatusOr<AttributeId> title = schema.AddAttribute("Title");
  StatusOr<AttributeId> author = schema.AddAttribute("Author", true);
  ASSERT_TRUE(title.ok());
  ASSERT_TRUE(author.ok());
  EXPECT_EQ(*title, 0);
  EXPECT_EQ(*author, 1);
  EXPECT_EQ(schema.num_attributes(), 2u);
  EXPECT_FALSE(schema.attribute(*title).multi_valued);
  EXPECT_TRUE(schema.attribute(*author).multi_valued);

  StatusOr<AttributeId> found = schema.FindAttribute("Author");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *author);
}

TEST(SchemaTest, DuplicateNameRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("X").ok());
  StatusOr<AttributeId> dup = schema.AddAttribute("X");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, EmptyNameRejected) {
  Schema schema;
  EXPECT_EQ(schema.AddAttribute("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, MissingAttributeIsNotFound) {
  Schema schema;
  EXPECT_EQ(schema.FindAttribute("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(ValueCatalogTest, InternIsIdempotent) {
  ValueCatalog catalog;
  ValueId a = catalog.Intern(0, "tom hanks");
  ValueId b = catalog.Intern(0, "tom hanks");
  EXPECT_EQ(a, b);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(ValueCatalogTest, SameTextDifferentAttributeIsDistinct) {
  ValueCatalog catalog;
  ValueId actor = catalog.Intern(0, "Clint Eastwood");
  ValueId director = catalog.Intern(1, "Clint Eastwood");
  EXPECT_NE(actor, director);
  EXPECT_EQ(catalog.attribute_of(actor), 0);
  EXPECT_EQ(catalog.attribute_of(director), 1);
  EXPECT_EQ(catalog.text_of(actor), catalog.text_of(director));
}

// `prefix` followed by the decimal `i`.
std::string Numbered(std::string prefix, int i) {
  prefix += std::to_string(i);
  return prefix;
}

TEST(ValueCatalogTest, ArenaGrowthKeepsEveryTextAndId) {
  ValueCatalog catalog;
  catalog.Reserve(4, 8);  // far too small: the arena must regrow
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(catalog.Intern(static_cast<AttributeId>(i % 3),
                             Numbered("value-", i)),
              static_cast<ValueId>(i));
  }
  ASSERT_EQ(catalog.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string text = Numbered("value-", i);
    const auto attr = static_cast<AttributeId>(i % 3);
    EXPECT_EQ(catalog.text_of(static_cast<ValueId>(i)), text);
    EXPECT_EQ(catalog.attribute_of(static_cast<ValueId>(i)), attr);
    EXPECT_EQ(catalog.Find(attr, text), static_cast<ValueId>(i));
    EXPECT_EQ(catalog.Find(static_cast<AttributeId>(attr + 1), text),
              kInvalidValueId);
  }
}

TEST(ValueCatalogTest, InterningItsOwnTextUnderAnotherAttribute) {
  // The text views the catalog's own arena, which the new value's
  // append may move.
  ValueCatalog catalog;
  for (int i = 0; i < 100; ++i) catalog.Intern(0, Numbered("t", i));
  for (ValueId v = 0; v < 100; ++v) {
    const ValueId copy = catalog.Intern(1, catalog.text_of(v));
    EXPECT_EQ(catalog.text_of(copy), Numbered("t", static_cast<int>(v)));
    EXPECT_EQ(catalog.Intern(0, catalog.text_of(v)), v);
  }
  EXPECT_EQ(catalog.size(), 200u);
}

TEST(ValueCatalogTest, EmptyTextIsAValue) {
  ValueCatalog catalog;
  const ValueId empty = catalog.Intern(0, "");
  const ValueId x = catalog.Intern(0, "x");
  EXPECT_EQ(catalog.Find(0, ""), empty);
  EXPECT_EQ(catalog.text_of(empty), "");
  EXPECT_EQ(catalog.text_of(x), "x");
}

TEST(ValueCatalogTest, FindReturnsInvalidWhenAbsent) {
  ValueCatalog catalog;
  catalog.Intern(0, "x");
  EXPECT_EQ(catalog.Find(0, "y"), kInvalidValueId);
  EXPECT_EQ(catalog.Find(1, "x"), kInvalidValueId);
  EXPECT_NE(catalog.Find(0, "x"), kInvalidValueId);
}

TEST(TableTest, RecordsAreSortedAndDeduplicated) {
  Table table = MakeTable({{{"A", "x"}, {"A", "x"}, {"B", "y"}}});
  ASSERT_EQ(table.num_records(), 1u);
  auto values = table.record(0);
  EXPECT_EQ(values.size(), 2u);  // duplicate collapsed
  EXPECT_LT(values[0], values[1]);
}

TEST(TableTest, ValueFrequencyCountsRecords) {
  Table table = MakeFigure1Table();
  EXPECT_EQ(table.value_frequency(testing_util::GetValueId(table, "A", "a2")),
            3u);
  EXPECT_EQ(table.value_frequency(testing_util::GetValueId(table, "C", "c2")),
            3u);
  EXPECT_EQ(table.value_frequency(testing_util::GetValueId(table, "B", "b4")),
            1u);
}

TEST(TableTest, DistinctValuesPerAttribute) {
  Table table = MakeFigure1Table();
  std::vector<size_t> counts = table.DistinctValuesPerAttribute();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 3u);  // a1, a2, a3
  EXPECT_EQ(counts[1], 4u);  // b1..b4
  EXPECT_EQ(counts[2], 2u);  // c1, c2
  EXPECT_EQ(table.num_distinct_values(), 9u);
}

TEST(TableTest, EmptyRecordRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("A").ok());
  Table table(std::move(schema));
  EXPECT_EQ(table.AddRecord({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, CellWithUnknownAttributeRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("A").ok());
  Table table(std::move(schema));
  EXPECT_EQ(table.AddRecord({Cell{5, "x"}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, EmptyCellTextRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("A").ok());
  Table table(std::move(schema));
  EXPECT_EQ(table.AddRecord({Cell{0, ""}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, AddRecordFromValueIdsValidatesInterning) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("A").ok());
  Table table(std::move(schema));
  ValueId v = table.mutable_catalog().Intern(0, "x");
  const std::vector<ValueId> interned = {v};
  const std::vector<ValueId> foreign = {v + 100};
  ASSERT_TRUE(table.AddRecordFromValueIds(interned).ok());
  EXPECT_EQ(table.AddRecordFromValueIds(foreign).status().code(),
            StatusCode::kInvalidArgument);
  // The rejected record leaves no trace in the record store.
  ASSERT_EQ(table.num_records(), 1u);
  EXPECT_EQ(std::vector<ValueId>(table.record(0).begin(),
                                 table.record(0).end()),
            interned);
  ASSERT_TRUE(table.AddRecordFromValueIds(interned).ok());
  EXPECT_EQ(table.record(1).size(), 1u);
  EXPECT_EQ(table.value_frequency(v), 2u);
}

TEST(TableTest, MultiValuedAttributeWithinOneRecord) {
  Table table = MakeTable({
      {{"Author", "smith"}, {"Author", "jones"}, {"Title", "t1"}},
  });
  EXPECT_EQ(table.record(0).size(), 3u);
  EXPECT_EQ(table.num_distinct_values(), 3u);
}

}  // namespace
}  // namespace deepcrawl
