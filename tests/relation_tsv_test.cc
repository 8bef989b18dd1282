#include "src/relation/tsv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "tests/test_util.h"

namespace deepcrawl {
namespace {

TEST(TsvTest, ReadBasicRecords) {
  std::istringstream input(
      "Title=Alien\tActor=Weaver\tActor=Holm\tDirector=Scott\n"
      "Title=Aliens\tActor=Weaver\tDirector=Cameron\n");
  StatusOr<Table> table = ReadTableTsv(input);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_records(), 2u);
  EXPECT_EQ(table->schema().num_attributes(), 3u);
  // "Weaver" appears in both records under Actor.
  StatusOr<AttributeId> actor = table->schema().FindAttribute("Actor");
  ASSERT_TRUE(actor.ok());
  ValueId weaver = table->catalog().Find(*actor, "Weaver");
  ASSERT_NE(weaver, kInvalidValueId);
  EXPECT_EQ(table->value_frequency(weaver), 2u);
}

TEST(TsvTest, SkipsEmptyLines) {
  std::istringstream input("A=1\n\nA=2\n");
  StatusOr<Table> table = ReadTableTsv(input);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_records(), 2u);
}

TEST(TsvTest, ValueMayContainEquals) {
  std::istringstream input("Price=>=100\n");
  StatusOr<Table> table = ReadTableTsv(input);
  ASSERT_TRUE(table.ok());
  StatusOr<AttributeId> price = table->schema().FindAttribute("Price");
  ASSERT_TRUE(price.ok());
  EXPECT_NE(table->catalog().Find(*price, ">=100"), kInvalidValueId);
}

TEST(TsvTest, MalformedCellsRejected) {
  {
    std::istringstream input("NoEqualsSign\n");
    EXPECT_EQ(ReadTableTsv(input).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::istringstream input("=value\n");
    EXPECT_EQ(ReadTableTsv(input).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::istringstream input("attr=\n");
    EXPECT_EQ(ReadTableTsv(input).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TsvTest, RoundTripPreservesContent) {
  Table original = testing_util::MakeFigure1Table();
  std::ostringstream out;
  ASSERT_TRUE(WriteTableTsv(original, out).ok());
  std::istringstream in(out.str());
  StatusOr<Table> reread = ReadTableTsv(in);
  ASSERT_TRUE(reread.ok());
  ASSERT_EQ(reread->num_records(), original.num_records());
  ASSERT_EQ(reread->num_distinct_values(), original.num_distinct_values());
  // Every record carries the same (attribute name, text) multiset.
  for (RecordId r = 0; r < original.num_records(); ++r) {
    std::multiset<std::string> want, got;
    for (ValueId v : original.record(r)) {
      want.insert(
          original.schema()
              .attribute(original.catalog().attribute_of(v)).name +
          "=" + std::string(original.catalog().text_of(v)));
    }
    for (ValueId v : reread->record(r)) {
      got.insert(
          reread->schema()
              .attribute(reread->catalog().attribute_of(v)).name +
          "=" + std::string(reread->catalog().text_of(v)));
    }
    EXPECT_EQ(want, got) << "record " << r;
  }
}

TEST(TsvTest, FileRoundTrip) {
  Table original = testing_util::MakeFigure1Table();
  testing_util::ScopedTempDir dir;
  std::string path = dir.File("deepcrawl_tsv_test.tsv");
  ASSERT_TRUE(WriteTableTsvFile(original, path).ok());
  StatusOr<Table> reread = ReadTableTsvFile(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_records(), original.num_records());
}

TEST(TsvTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadTableTsvFile("/nonexistent/path.tsv").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace deepcrawl
