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

Result<Table> Table::Select(const Table& base,
                            std::shared_ptr<const ColumnarTable> columnar,
                            std::vector<uint32_t> rows,
                            const std::vector<std::string>& columns) {
  if (columnar != nullptr && columnar != base.columnar_) {
    return Status::InvalidArgument(
        "a selection reads its base table's own columnar backing, not "
        "another shadow");
  }
  for (const uint32_t r : rows) {
    if (r >= base.num_rows()) {
      return Status::OutOfRange("row index " + std::to_string(r) +
                                " out of range");
    }
  }
  Table out;
  if (columns.empty()) {
    out.schema_ = base.schema_;
    out.projection_.resize(base.num_columns());
    std::iota(out.projection_.begin(), out.projection_.end(), uint32_t{0});
  } else {
    std::vector<ColumnDef> cols;
    cols.reserve(columns.size());
    out.projection_.reserve(columns.size());
    for (const std::string& name : columns) {
      AUTOCAT_ASSIGN_OR_RETURN(const size_t idx,
                               base.schema_.ColumnIndex(name));
      cols.push_back(base.schema_.column(idx));
      out.projection_.push_back(static_cast<uint32_t>(idx));
    }
    AUTOCAT_ASSIGN_OR_RETURN(out.schema_, Schema::Create(std::move(cols)));
  }
  if (base.has_rows()) {
    // A builder base: its shadow's coordinates are its own.
    out.columnar_ =
        std::make_shared<const ColumnarTable>(ColumnarTable::Build(base));
  } else {
    // Compose the base's maps: the selection addresses the backing
    // directly.
    for (uint32_t& r : rows) {
      r = base.backing_row(r);
    }
    for (uint32_t& c : out.projection_) {
      c = base.projection_[c];
    }
    out.columnar_ = base.columnar_;
  }
  out.columnar_rows_ = rows.size();
  out.selected_ = true;
  out.selection_ = std::move(rows);
  return out;
}

Value Table::CellValue(size_t row, size_t col) const {
  if (columnar_ == nullptr) {
    return rows_[row][col];
  }
  return columnar_->column(projection_[col]).CellValue(backing_row(row));
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
