// Table: the universal relational table DB of the paper (§2.1).
//
// A Table owns a Schema, a ValueCatalog, and the records. Each record is
// a sorted, duplicate-free list of ValueIds (a record's values form a
// clique in the attribute-value graph, so order is irrelevant; sortedness
// makes co-occurrence scans and set operations cheap).
//
// Records are appended through AddRecord; the table is append-only, which
// matches both the simulated server (immutable target database) and the
// crawler's local store (grow-only DBlocal).

#ifndef DEEPCRAWL_RELATION_TABLE_H_
#define DEEPCRAWL_RELATION_TABLE_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/relation/schema.h"
#include "src/relation/types.h"
#include "src/relation/value_catalog.h"
#include "src/util/status.h"

namespace deepcrawl {

// One attribute/value cell of an input record, before interning.
struct Cell {
  AttributeId attr = kInvalidAttributeId;
  std::string text;
};

class Table {
 public:
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  // Interns every cell and appends the record. Duplicate values within
  // one record are collapsed. Fails when a cell names an attribute
  // outside the schema or the record is empty.
  StatusOr<RecordId> AddRecord(const std::vector<Cell>& cells);

  // Appends a record given pre-interned value ids (they must have been
  // interned through this table's catalog). Ids are sorted/deduplicated
  // in the record store itself, so the caller's buffer can be reused;
  // `values` must not view this table's own records.
  StatusOr<RecordId> AddRecordFromValueIds(std::span<const ValueId> values);

  size_t num_records() const { return record_offsets_.size() - 1; }
  size_t num_distinct_values() const { return catalog_.size(); }

  // The sorted, duplicate-free value ids of record `id`.
  std::span<const ValueId> record(RecordId id) const;

  const Schema& schema() const { return schema_; }
  const ValueCatalog& catalog() const { return catalog_; }
  ValueCatalog& mutable_catalog() { return catalog_; }

  // Number of records containing `value` — num(q, DB) in the paper's
  // cost model (Definition 2.3).
  uint32_t value_frequency(ValueId value) const;

  // Count of distinct values per attribute (Table 2 of the paper).
  std::vector<size_t> DistinctValuesPerAttribute() const;

 private:
  Schema schema_;
  ValueCatalog catalog_;
  // Record storage: concatenated value ids with an offsets array
  // (CSR-style), avoiding per-record vector overhead.
  std::vector<ValueId> record_values_;
  std::vector<size_t> record_offsets_ = {0};
  // value_frequency_[v] = number of records containing v.
  std::vector<uint32_t> value_frequency_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_RELATION_TABLE_H_
