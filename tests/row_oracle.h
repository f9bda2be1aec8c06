#ifndef AUTOCAT_TESTS_ROW_ORACLE_H_
#define AUTOCAT_TESTS_ROW_ORACLE_H_

// The row-at-a-time selection/projection reference the result tables are
// compared against. It copies cells row by row into a builder table and
// never goes through `Table::Select`, so it is independent of the
// selection-over-a-shadow representation every query result uses.

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace autocat {

// The rows of `table` at `indices` (in that order) projected to `columns`
// (in that order; empty = every column), as a builder table. Over a
// builder, every cell is a copy of its own row's cell. Errors: an unknown
// column kNotFound and a duplicate one kAlreadyExists (as `Schema`
// answers), a row index out of range kOutOfRange.
inline Result<Table> SelectProjectRows(const Table& table,
                                       const std::vector<size_t>& indices,
                                       const std::vector<std::string>& columns) {
  std::vector<size_t> source;
  std::vector<ColumnDef> defs;
  if (columns.empty()) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      source.push_back(c);
      defs.push_back(table.schema().column(c));
    }
  }
  for (const std::string& name : columns) {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t c, table.schema().ColumnIndex(name));
    source.push_back(c);
    defs.push_back(table.schema().column(c));
  }
  AUTOCAT_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(defs)));
  Table out(std::move(schema));
  Row scratch;
  for (const size_t r : indices) {
    if (r >= table.num_rows()) {
      return Status::OutOfRange("row index " + std::to_string(r) +
                                " out of range");
    }
    const Row& row = table.RowRef(r, &scratch);
    Row projected;
    for (const size_t c : source) {
      projected.push_back(row[c]);
    }
    AUTOCAT_RETURN_IF_ERROR(out.AppendRow(std::move(projected)));
  }
  return out;
}

}  // namespace autocat

#endif  // AUTOCAT_TESTS_ROW_ORACLE_H_
