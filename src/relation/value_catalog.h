// ValueCatalog: interning of distinct attribute values.
//
// The distinct attribute value set DAV of the paper (§2.1) is represented
// as a dense id space: each distinct (attribute, text) pair receives one
// ValueId in insertion order. The catalog is append-only; ids are stable.
//
// Layout: every text is stored once, back to back in one char arena in
// id order; offsets_[id] and offsets_[id + 1] bound value id's text. An
// open-addressing index of ids (FlatIdIndex) finds a pair by hashing
// (attribute, text) and comparing against the arena, so Intern and Find
// take a string_view and allocate nothing but the arena's own growth.

#ifndef DEEPCRAWL_RELATION_VALUE_CATALOG_H_
#define DEEPCRAWL_RELATION_VALUE_CATALOG_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/relation/types.h"
#include "src/util/flat_hash.h"

namespace deepcrawl {

class ValueCatalog {
 public:
  ValueCatalog() = default;

  // Returns the id of (attr, text), interning it on first sight.
  ValueId Intern(AttributeId attr, std::string_view text);

  // Returns the id of (attr, text) or kInvalidValueId when absent.
  ValueId Find(AttributeId attr, std::string_view text) const;

  // Sizes the arrays for `values` values of `text_bytes` text bytes in
  // all, so interning up to that much grows nothing.
  void Reserve(size_t values, size_t text_bytes);

  AttributeId attribute_of(ValueId id) const;
  // A view into the arena; Intern may move the arena and invalidate it.
  std::string_view text_of(ValueId id) const;

  size_t size() const { return attrs_.size(); }

 private:
  static uint64_t Hash(AttributeId attr, std::string_view text) {
    return FlatHashText(text, attr);
  }
  std::string_view TextAt(ValueId id) const {
    return std::string_view(arena_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  std::vector<char> arena_;              // every text, in id order
  std::vector<uint64_t> offsets_ = {0};  // id's text: [offsets_[id], +1)
  std::vector<AttributeId> attrs_;       // indexed by ValueId
  FlatIdIndex index_;                    // (attr, text) -> id
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_RELATION_VALUE_CATALOG_H_
