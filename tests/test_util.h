// Shared helpers for deepcrawl unit and integration tests.

#ifndef DEEPCRAWL_TESTS_TEST_UTIL_H_
#define DEEPCRAWL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/relation/table.h"
#include "src/util/logging.h"

namespace deepcrawl {
namespace testing_util {

// A fresh mkdtemp directory under ::testing::TempDir(), removed with its
// contents on destruction. Fixed names under TempDir() collide when
// ctest -j runs tests (one process each) from one or more build trees.
class ScopedTempDir {
 public:
  ScopedTempDir() : path_(::testing::TempDir() + "/deepcrawl_XXXXXX") {
    DEEPCRAWL_CHECK(mkdtemp(path_.data()) != nullptr)
        << "mkdtemp failed for " << path_;
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  // `name` inside this directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

// One test record: list of (attribute name, value text) pairs.
using Row = std::vector<std::pair<std::string, std::string>>;

// Builds a table from rows; the schema is the union of attribute names
// in first-appearance order. Aborts (CHECK) on malformed input — tests
// construct valid fixtures.
inline Table MakeTable(const std::vector<Row>& rows) {
  Schema schema;
  for (const Row& row : rows) {
    for (const auto& [attr, _] : row) {
      if (!schema.FindAttribute(attr).ok()) {
        DEEPCRAWL_CHECK(schema.AddAttribute(attr).ok());
      }
    }
  }
  Table table(std::move(schema));
  for (const Row& row : rows) {
    std::vector<Cell> cells;
    for (const auto& [attr, text] : row) {
      StatusOr<AttributeId> id = table.schema().FindAttribute(attr);
      DEEPCRAWL_CHECK(id.ok());
      cells.push_back(Cell{*id, text});
    }
    DEEPCRAWL_CHECK(table.AddRecord(cells).ok());
  }
  return table;
}

// Looks up an interned value id; aborts when absent.
inline ValueId GetValueId(const Table& table, const std::string& attr,
                          const std::string& text) {
  StatusOr<AttributeId> a = table.schema().FindAttribute(attr);
  DEEPCRAWL_CHECK(a.ok()) << "no attribute " << attr;
  ValueId v = table.catalog().Find(*a, text);
  DEEPCRAWL_CHECK(v != kInvalidValueId) << "no value " << attr << "=" << text;
  return v;
}

// The running example of Figure 1: a database whose AVG the paper draws.
//   (a1 b1 c1), (a2 b2 c1), (a2 b2 c2), (a2 b3 c2), (a3 b4 c2)
inline Table MakeFigure1Table() {
  return MakeTable({
      {{"A", "a1"}, {"B", "b1"}, {"C", "c1"}},
      {{"A", "a2"}, {"B", "b2"}, {"C", "c1"}},
      {{"A", "a2"}, {"B", "b2"}, {"C", "c2"}},
      {{"A", "a2"}, {"B", "b3"}, {"C", "c2"}},
      {{"A", "a3"}, {"B", "b4"}, {"C", "c2"}},
  });
}

}  // namespace testing_util
}  // namespace deepcrawl

#endif  // DEEPCRAWL_TESTS_TEST_UTIL_H_
