#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <set>
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
  out.columnar_ = std::move(columnar);
  return out;
}

Table Table::FromValidatedRows(Schema schema, std::vector<Row> rows) {
  Table out(std::move(schema));
  out.rows_ = std::move(rows);
  return out;
}

Value Table::CellValue(size_t row, size_t col) const {
  if (columnar_ == nullptr) {
    return rows_[row][col];
  }
  const ColumnarTable::Column& cc = columnar_->column(col);
  if (cc.IsNull(row)) {
    return Value();
  }
  switch (cc.type) {
    case ValueType::kInt64:
      return Value(cc.i64[row]);
    case ValueType::kDouble:
      return Value(cc.f64[row]);
    case ValueType::kString:
      return Value(cc.dict[cc.codes[row]]);
    case ValueType::kNull:
      return Value();
  }
  return Value();
}

Row Table::CopyRow(size_t i) const {
  if (columnar_ == nullptr) {
    return rows_[i];
  }
  Row out;
  out.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    out.push_back(CellValue(i, c));
  }
  return out;
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

Result<Table> Table::SelectRows(const std::vector<size_t>& indices) const {
  Table out(schema_);
  out.Reserve(indices.size());
  const size_t n = num_rows();
  for (size_t idx : indices) {
    if (idx >= n) {
      return Status::OutOfRange("row index " + std::to_string(idx) +
                                " out of range");
    }
    if (columnar_ == nullptr) {
      out.rows_.push_back(rows_[idx]);
    } else {
      out.rows_.push_back(CopyRow(idx));
    }
  }
  return out;
}

std::vector<size_t> Table::FilterIndices(
    const std::function<bool(const Row&)>& pred) const {
  const size_t n = num_rows();
  std::vector<size_t> out;
  // Heuristic: most filters on this path are selective; a quarter of the
  // table avoids the early doubling reallocations without ballooning
  // memory when only a handful of rows match.
  out.reserve(n / 4 + 16);
  if (columnar_ == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (pred(rows_[i])) {
        out.push_back(i);
      }
    }
    return out;
  }
  Row scratch;
  for (size_t i = 0; i < n; ++i) {
    scratch.clear();
    for (size_t c = 0; c < num_columns(); ++c) {
      scratch.push_back(CellValue(i, c));
    }
    if (pred(scratch)) {
      out.push_back(i);
    }
  }
  return out;
}

Result<Table> Table::Project(
    const std::vector<std::string>& column_names) const {
  std::vector<ColumnDef> cols;
  std::vector<size_t> src_indices;
  cols.reserve(column_names.size());
  for (const std::string& name : column_names) {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t idx, schema_.ColumnIndex(name));
    cols.push_back(schema_.column(idx));
    src_indices.push_back(idx);
  }
  AUTOCAT_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(cols)));
  const size_t n = num_rows();
  Table out(std::move(out_schema));
  out.Reserve(n);
  if (columnar_ != nullptr) {
    for (size_t r = 0; r < n; ++r) {
      Row projected;
      projected.reserve(src_indices.size());
      for (const size_t c : src_indices) {
        projected.push_back(CellValue(r, c));
      }
      out.rows_.push_back(std::move(projected));
    }
    return out;
  }
  // Identity projection: every column in schema order — the rows can be
  // copied whole instead of cell by cell.
  const bool identity =
      src_indices.size() == schema_.num_columns() &&
      [&src_indices] {
        for (size_t c = 0; c < src_indices.size(); ++c) {
          if (src_indices[c] != c) {
            return false;
          }
        }
        return true;
      }();
  if (identity) {
    out.rows_ = rows_;
    return out;
  }
  for (const Row& r : rows_) {
    Row projected(src_indices.size());
    for (size_t c = 0; c < src_indices.size(); ++c) {
      projected[c] = r[src_indices[c]];
    }
    out.rows_.push_back(std::move(projected));
  }
  return out;
}

Result<std::vector<Value>> Table::DistinctValues(size_t col) const {
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (columnar_ != nullptr) {
    const ColumnarTable::Column& cc = columnar_->column(col);
    if (cc.type == ValueType::kString) {
      // The dictionary IS the sorted distinct non-NULL value set.
      std::vector<Value> out;
      out.reserve(cc.dict.size());
      for (const std::string& s : cc.dict) {
        out.emplace_back(s);
      }
      return out;
    }
    std::set<Value> distinct;
    const size_t n = num_rows();
    for (size_t r = 0; r < n; ++r) {
      Value v = CellValue(r, col);
      if (!v.is_null()) {
        distinct.insert(std::move(v));
      }
    }
    return std::vector<Value>(distinct.begin(), distinct.end());
  }
  std::set<Value> distinct;
  for (const Row& r : rows_) {
    if (!r[col].is_null()) {
      distinct.insert(r[col]);
    }
  }
  return std::vector<Value>(distinct.begin(), distinct.end());
}

Result<std::pair<Value, Value>> Table::MinMax(size_t col) const {
  if (col >= schema_.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  bool seen = false;
  Value min_v;
  Value max_v;
  const size_t n = num_rows();
  for (size_t r = 0; r < n; ++r) {
    Value owned;
    const Value* v;
    if (columnar_ == nullptr) {
      v = &rows_[r][col];
    } else {
      owned = CellValue(r, col);
      v = &owned;
    }
    if (v->is_null()) {
      continue;
    }
    if (!seen) {
      min_v = *v;
      max_v = *v;
      seen = true;
    } else {
      if (*v < min_v) min_v = *v;
      if (*v > max_v) max_v = *v;
    }
  }
  if (!seen) {
    return Status::NotFound("column '" + schema_.column(col).name +
                            "' has no non-NULL values");
  }
  return std::make_pair(min_v, max_v);
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
    return bytes;
  }
  for (const Row& row : table.rows()) {
    bytes += sizeof(Row);
    for (const Value& v : row) {
      bytes += ApproxValueBytes(v);
    }
  }
  return bytes;
}

}  // namespace autocat
