#include "src/relation/table.h"

#include <algorithm>

#include "src/util/logging.h"

namespace deepcrawl {

StatusOr<RecordId> Table::AddRecord(const std::vector<Cell>& cells) {
  if (cells.empty()) {
    return Status::InvalidArgument("record must have at least one value");
  }
  std::vector<ValueId> values;
  values.reserve(cells.size());
  for (const Cell& cell : cells) {
    if (cell.attr >= schema_.num_attributes()) {
      return Status::InvalidArgument("cell attribute id out of range");
    }
    if (cell.text.empty()) {
      return Status::InvalidArgument("cell text must be non-empty");
    }
    values.push_back(catalog_.Intern(cell.attr, cell.text));
  }
  return AddRecordFromValueIds(values);
}

StatusOr<RecordId> Table::AddRecordFromValueIds(
    std::span<const ValueId> values) {
  if (values.empty()) {
    return Status::InvalidArgument("record must have at least one value");
  }
  if (num_records() >= kInvalidRecordId) {
    return Status::ResourceExhausted("record id space exhausted");
  }
  const size_t begin = record_values_.size();
  record_values_.insert(record_values_.end(), values.begin(), values.end());
  auto first = record_values_.begin() + static_cast<ptrdiff_t>(begin);
  std::sort(first, record_values_.end());
  record_values_.erase(std::unique(first, record_values_.end()),
                       record_values_.end());
  if (record_values_.back() >= catalog_.size()) {
    record_values_.resize(begin);
    return Status::InvalidArgument("value id not interned in this catalog");
  }
  RecordId id = static_cast<RecordId>(num_records());
  if (value_frequency_.size() < catalog_.size()) {
    value_frequency_.resize(catalog_.size(), 0);
  }
  for (size_t i = begin; i < record_values_.size(); ++i) {
    ++value_frequency_[record_values_[i]];
  }
  record_offsets_.push_back(record_values_.size());
  return id;
}

std::span<const ValueId> Table::record(RecordId id) const {
  DEEPCRAWL_CHECK_LT(id, num_records()) << "record id out of range";
  size_t begin = record_offsets_[id];
  size_t end = record_offsets_[id + 1];
  return std::span<const ValueId>(record_values_.data() + begin, end - begin);
}

uint32_t Table::value_frequency(ValueId value) const {
  DEEPCRAWL_CHECK_LT(value, catalog_.size()) << "value id out of range";
  if (value >= value_frequency_.size()) return 0;
  return value_frequency_[value];
}

std::vector<size_t> Table::DistinctValuesPerAttribute() const {
  std::vector<size_t> counts(schema_.num_attributes(), 0);
  for (ValueId v = 0; v < catalog_.size(); ++v) {
    ++counts[catalog_.attribute_of(v)];
  }
  return counts;
}

}  // namespace deepcrawl
