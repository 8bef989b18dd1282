// Tab-separated import/export of Tables.
//
// Lets users bring their own database dumps to the crawler simulation
// (and persist generated workloads or a crawl's harvest for external
// analysis). Format: one record per line, no header line; a record is
// tab-separated cells, each cell "<attribute name>=<text>". Naming the
// attribute in every cell keeps the format lossless for multi-valued
// attributes: a record may repeat an attribute (multi-valued) and omit
// attributes (sparse records). Example:
//
//   Title=Alien	Actor=Weaver	Actor=Holm	Director=Scott
//
// Tabs and newlines are not allowed inside names or values ('=' is
// allowed in values; the first '=' splits the cell).

#ifndef DEEPCRAWL_RELATION_TSV_H_
#define DEEPCRAWL_RELATION_TSV_H_

#include <iosfwd>
#include <span>
#include <string>

#include "src/relation/table.h"
#include "src/relation/types.h"
#include "src/util/status.h"

namespace deepcrawl {

// Reads records from `input` (one per line, format above). Attribute
// names are added to the schema in first-appearance order. Empty lines
// are skipped. Fails on malformed cells (no '=', empty name or value).
StatusOr<Table> ReadTableTsv(std::istream& input);

// Writes one line: a cell per value in `values`, each a value id of
// `table`'s catalog, named by `table`'s schema. Every writer of this
// format goes through it.
void WriteTsvRow(const Table& table, std::span<const ValueId> values,
                 std::ostream& output);

// Writes every record of `table` in the same format. Fails when the
// stream does.
Status WriteTableTsv(const Table& table, std::ostream& output);

// File-path convenience wrappers.
StatusOr<Table> ReadTableTsvFile(const std::string& path);
Status WriteTableTsvFile(const Table& table, const std::string& path);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_RELATION_TSV_H_
