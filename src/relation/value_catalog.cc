#include "src/relation/value_catalog.h"

#include <functional>
#include <string>

#include "src/util/logging.h"

namespace deepcrawl {

ValueId ValueCatalog::Intern(AttributeId attr, std::string_view text) {
  DEEPCRAWL_CHECK_LT(attrs_.size(), kInvalidValueId)
      << "value id space exhausted";
  // A text viewing this arena (another attribute's text_of) would dangle
  // once the arena moves: copy it first.
  const std::less<const char*> before;
  if (!text.empty() && !before(text.data(), arena_.data()) &&
      before(text.data(), arena_.data() + arena_.size())) {
    return Intern(attr, std::string(text));
  }
  const auto next = static_cast<ValueId>(attrs_.size());
  const ValueId id =
      index_.FindOrInsert(Hash(attr, text), next, [&](ValueId v) {
        return attrs_[v] == attr && TextAt(v) == text;
      });
  if (id != next) return id;
  arena_.insert(arena_.end(), text.begin(), text.end());
  offsets_.push_back(arena_.size());
  attrs_.push_back(attr);
  return id;
}

ValueId ValueCatalog::Find(AttributeId attr, std::string_view text) const {
  const ValueId id = index_.Find(Hash(attr, text), [&](ValueId v) {
    return attrs_[v] == attr && TextAt(v) == text;
  });
  return id == FlatIdIndex::kAbsent ? kInvalidValueId : id;
}

void ValueCatalog::Reserve(size_t values, size_t text_bytes) {
  arena_.reserve(text_bytes);
  offsets_.reserve(values + 1);
  attrs_.reserve(values);
  index_.Reserve(values);
}

AttributeId ValueCatalog::attribute_of(ValueId id) const {
  DEEPCRAWL_CHECK_LT(id, attrs_.size()) << "value id out of range";
  return attrs_[id];
}

std::string_view ValueCatalog::text_of(ValueId id) const {
  DEEPCRAWL_CHECK_LT(id, attrs_.size()) << "value id out of range";
  return TextAt(id);
}

}  // namespace deepcrawl
