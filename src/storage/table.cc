#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "storage/columnar.h"

namespace autocat {

namespace {

// Coerces `*cell` to the declared `type` in place when a lossless
// conversion exists. NULL and already-typed cells pass through untouched
// (no copy — the caller keeps ownership of string payloads).
Status CoerceCellInPlace(Value* cell, const ColumnDef& col) {
  if (cell->is_null() || cell->type() == col.type) {
    return Status::OK();
  }
  if (col.type == ValueType::kDouble && cell->is_int64()) {
    *cell = Value(static_cast<double>(cell->int64_value()));
    return Status::OK();
  }
  if (col.type == ValueType::kInt64 && cell->is_double()) {
    const double d = cell->double_value();
    if (std::floor(d) == d && std::fabs(d) < 9.2e18) {
      *cell = Value(static_cast<int64_t>(d));
      return Status::OK();
    }
    return Status::InvalidArgument(
        "cannot losslessly store " + cell->ToString() + " in int64 column '" +
        col.name + "'");
  }
  return Status::InvalidArgument(
      "type mismatch in column '" + col.name + "': expected " +
      std::string(ValueTypeToString(col.type)) + ", got " +
      std::string(ValueTypeToString(cell->type())));
}

}  // namespace

Status CoerceRowToSchema(Row* row, const Schema& schema) {
  if (row->size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row->size()) + " cells, schema has " +
        std::to_string(schema.num_columns()) + " columns");
  }
  for (size_t c = 0; c < row->size(); ++c) {
    AUTOCAT_RETURN_IF_ERROR(CoerceCellInPlace(&(*row)[c], schema.column(c)));
  }
  return Status::OK();
}

Table Table::FromColumnar(Schema schema,
                          std::shared_ptr<const ColumnarTable> columnar) {
  AUTOCAT_CHECK(columnar != nullptr);
  AUTOCAT_CHECK_EQ(columnar->num_columns(), schema.num_columns());
  Table out(std::move(schema));
  out.columnar_rows_ = columnar->num_rows();
  out.projection_.resize(out.num_columns());
  std::iota(out.projection_.begin(), out.projection_.end(), uint32_t{0});
  out.columnar_ = std::move(columnar);
  return out;
}

Value Table::CellValue(size_t row, size_t col) const {
  if (columnar_ == nullptr) {
    return rows_[row][col];
  }
  return columnar_->column(projection_[col]).CellValue(BackingRow(row));
}

const Row& Table::RowRef(size_t i, Row* scratch) const {
  if (columnar_ == nullptr) {
    return rows_[i];
  }
  scratch->clear();
  for (size_t c = 0; c < num_columns(); ++c) {
    scratch->push_back(CellValue(i, c));
  }
  return *scratch;
}

Status Table::AppendRow(Row row) {
  if (columnar_ != nullptr) {
    return Status::InvalidArgument(
        "cannot append to a column-backed table");
  }
  AUTOCAT_RETURN_IF_ERROR(CoerceRowToSchema(&row, schema_));
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::AppendRows(std::vector<Row> rows) {
  if (columnar_ != nullptr) {
    return Status::InvalidArgument(
        "cannot append to a column-backed table");
  }
  // Validate (and coerce in place) before touching rows_, so a failed
  // batch leaves the table unchanged.
  for (Row& row : rows) {
    AUTOCAT_RETURN_IF_ERROR(CoerceRowToSchema(&row, schema_));
  }
  rows_.reserve(rows_.size() + rows.size());
  for (Row& row : rows) {
    rows_.push_back(std::move(row));
  }
  return Status::OK();
}

std::string Table::ToString(size_t max_rows) const {
  const size_t ncols = schema_.num_columns();
  const size_t shown = std::min(max_rows, num_rows());

  std::vector<std::vector<std::string>> cells;
  std::vector<size_t> widths(ncols, 0);
  std::vector<std::string> header(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    header[c] = schema_.column(c).name;
    widths[c] = header[c].size();
  }
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row_cells(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      row_cells[c] = CellValue(r, c).ToString();
      widths[c] = std::max(widths[c], row_cells[c].size());
    }
    cells.push_back(std::move(row_cells));
  }

  auto append_row = [&](std::string& out,
                        const std::vector<std::string>& row_cells) {
    for (size_t c = 0; c < ncols; ++c) {
      out += "| ";
      out += row_cells[c];
      out.append(widths[c] - row_cells[c].size() + 1, ' ');
    }
    out += "|\n";
  };

  std::string out;
  append_row(out, header);
  for (size_t c = 0; c < ncols; ++c) {
    out += "|";
    out.append(widths[c] + 2, '-');
  }
  out += "|\n";
  for (const auto& row_cells : cells) {
    append_row(out, row_cells);
  }
  if (shown < num_rows()) {
    out += "... (" + std::to_string(num_rows() - shown) + " more rows)\n";
  }
  return out;
}

size_t ApproxValueBytes(const Value& v) {
  size_t bytes = sizeof(Value);
  if (v.is_string()) {
    bytes += v.string_value().capacity();
  }
  return bytes;
}

size_t ApproxTableBytes(const Table& table) {
  size_t bytes = sizeof(Table);
  if (!table.has_rows()) {
    // The selection and projection; the cells belong to the backing.
    const size_t selected = table.has_selection() ? table.num_rows() : 0;
    return bytes + sizeof(uint32_t) * (selected + table.num_columns());
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bytes += sizeof(Row);
    for (const Value& v : table.row(r)) {
      bytes += ApproxValueBytes(v);
    }
  }
  return bytes;
}

}  // namespace autocat
