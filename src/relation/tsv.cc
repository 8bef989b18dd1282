#include "src/relation/tsv.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace deepcrawl {

StatusOr<Table> ReadTableTsv(std::istream& input) {
  // Two passes are avoided by collecting parsed rows first (the schema
  // grows as new attribute names appear).
  struct ParsedCell {
    std::string attr;
    std::string text;
  };
  std::vector<std::vector<ParsedCell>> rows;
  std::string line;
  size_t line_number = 0;
  while (std::getline(input, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<ParsedCell> row;
    size_t begin = 0;
    while (begin <= line.size()) {
      size_t end = line.find('\t', begin);
      if (end == std::string::npos) end = line.size();
      std::string_view cell(line.data() + begin, end - begin);
      if (!cell.empty()) {
        size_t eq = cell.find('=');
        if (eq == std::string_view::npos || eq == 0 ||
            eq + 1 == cell.size()) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) +
              ": malformed cell '" + std::string(cell) +
              "' (want <attr>=<value>)");
        }
        row.push_back(ParsedCell{std::string(cell.substr(0, eq)),
                                 std::string(cell.substr(eq + 1))});
      }
      begin = end + 1;
      if (end == line.size()) break;
    }
    if (row.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": record has no cells");
    }
    rows.push_back(std::move(row));
  }

  Schema schema;
  for (const auto& row : rows) {
    for (const ParsedCell& cell : row) {
      if (!schema.FindAttribute(cell.attr).ok()) {
        DEEPCRAWL_RETURN_IF_ERROR(schema.AddAttribute(cell.attr).status());
      }
    }
  }
  Table table(std::move(schema));
  for (const auto& row : rows) {
    std::vector<Cell> cells;
    cells.reserve(row.size());
    for (const ParsedCell& cell : row) {
      StatusOr<AttributeId> attr = table.schema().FindAttribute(cell.attr);
      if (!attr.ok()) return attr.status();
      cells.push_back(Cell{*attr, cell.text});
    }
    StatusOr<RecordId> added = table.AddRecord(cells);
    if (!added.ok()) return added.status();
  }
  return table;
}

void WriteTsvRow(const Table& table, std::span<const ValueId> values,
                 std::ostream& output) {
  bool first = true;
  for (ValueId v : values) {
    if (!first) output << '\t';
    first = false;
    AttributeId attr = table.catalog().attribute_of(v);
    output << table.schema().attribute(attr).name << '='
           << table.catalog().text_of(v);
  }
  output << '\n';
}

Status WriteTableTsv(const Table& table, std::ostream& output) {
  for (RecordId r = 0; r < table.num_records(); ++r) {
    WriteTsvRow(table, table.record(r), output);
  }
  if (!output) return Status::Internal("write failed");
  return Status::OK();
}

StatusOr<Table> ReadTableTsvFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  return ReadTableTsv(file);
}

Status WriteTableTsvFile(const Table& table, const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot create '" + path + "'");
  return WriteTableTsv(table, file);
}

}  // namespace deepcrawl
