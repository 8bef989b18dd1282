// InvertedIndex: ValueId -> sorted posting list of RecordIds.
//
// This is the query-evaluation substrate behind the simulated Web
// database server: a single-attribute equality query (Definition 2.2)
// resolves to one posting-list lookup. Postings are stored CSR-style
// (one concatenated array plus offsets) and are sorted ascending because
// records are scanned in id order at build time.

#ifndef DEEPCRAWL_INDEX_INVERTED_INDEX_H_
#define DEEPCRAWL_INDEX_INVERTED_INDEX_H_

#include <span>
#include <vector>

#include "src/relation/table.h"
#include "src/relation/types.h"

namespace deepcrawl {

class InvertedIndex {
 public:
  // Builds the index over every record currently in `table`. The table
  // must outlive the index and must not grow afterwards (the simulated
  // target database is immutable).
  explicit InvertedIndex(const Table& table);

  // Records containing `value`, ascending by RecordId. Empty when the
  // value id is out of range or unseen.
  std::span<const RecordId> Postings(ValueId value) const;

  // Number of records matched by `value` — num(q, DB).
  uint32_t MatchCount(ValueId value) const {
    return static_cast<uint32_t>(Postings(value).size());
  }

  size_t num_values() const { return offsets_.size() - 1; }
  size_t total_postings() const { return postings_.size(); }

  // Number of records that contain BOTH values (posting intersection
  // size). Only tests call it, as an oracle over the whole table; MMMI
  // counts co-occurrences in the local store, not here.
  uint32_t CooccurrenceCount(ValueId a, ValueId b) const;

 private:
  std::vector<RecordId> postings_;
  std::vector<size_t> offsets_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_INDEX_INVERTED_INDEX_H_
