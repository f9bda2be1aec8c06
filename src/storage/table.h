#ifndef AUTOCAT_STORAGE_TABLE_H_
#define AUTOCAT_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/value.h"
#include "storage/schema.h"

namespace autocat {

class ColumnarTable;

/// A row of cells. Rows are owned by a Table and always match its schema.
using Row = std::vector<Value>;

/// Validates `row` against `schema` — arity, then per-cell type — and
/// coerces numeric cells to the declared column type in place (int64 into
/// double columns; double into int64 columns when lossless). Cells that
/// already match are left untouched, so no Value (or string payload) is
/// copied. Shared by Table appends and the segment-store bulk loader so
/// both accept exactly the same rows.
Status CoerceRowToSchema(Row* row, const Schema& schema);

/// An in-memory relation.
///
/// `Table` is the substrate every other module operates on: the base
/// `ListProperty` relation, query result sets, and the workload count
/// tables (AttributeUsageCounts / OccurrenceCounts / SplitPoints) are all
/// `Table`s. Appends validate arity and cell types against the schema and
/// coerce int64 into double columns (and vice versa when lossless), so a
/// stored column is always homogeneous.
///
/// A table comes in one of two storage modes:
///  - **row-backed** (the default): the builder. Cells live in `rows_`,
///    appends are allowed, and `row()` / `rows()` / `ValueAt()` hand out
///    references. The generator, the CSV reader, the count tables and
///    query-operator results are row-backed, and `ColumnarTable::Build`
///    reads them.
///  - **column-backed**: the cells live in a shared, immutable
///    `ColumnarTable` and no row vectors exist at all. Table row r is
///    backing row `selection[r]` and table column c is backing column
///    `projection[c]`. `FromColumnar` wraps a whole relation (the maps
///    are the identity): every table a `Database` holds is one, over a
///    built shadow or a mapped segment store. `TableView::AsTable` wraps
///    a view's rows and columns of a shadow (the late-materialized
///    cold-path result: the maps are the view's). The table is
///    immutable, `row()` / `rows()` / `ValueAt()` must not be called
///    (`has_rows()` is false; debug builds check), and row-shaped
///    consumers go through `RowRef` / `CopyRow` / `CellValue`, which
///    synthesize owned cells through the maps on demand.
/// All query operators (`SelectRows`, `FilterIndices`, `Project`,
/// `DistinctValues`, `MinMax`, `ToString`) work in both modes, answer
/// alike for equal cells, and always produce row-backed results.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  /// Wraps an already-built columnar relation as an immutable
  /// column-backed table.
  /// `columnar.num_columns()` must equal `schema.num_columns()` with
  /// matching types, and a shadow's numeric rank codes follow the kinds
  /// it was built under, so `schema` must declare those kinds.
  static Table FromColumnar(Schema schema,
                            std::shared_ptr<const ColumnarTable> columnar);

  /// Builds a row-backed table from rows that already conform to `schema`
  /// — every cell a copy of a cell validated against the same declared
  /// column types. Skips the per-cell validation/coercion of
  /// `AppendRows`; passing rows that were not gathered from a
  /// schema-matching table breaks the homogeneity invariant, and
  /// `ColumnarTable::Build` aborts on the result.
  static Table FromValidatedRows(Schema schema, std::vector<Row> rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    return columnar_ == nullptr ? rows_.size() : columnar_rows_;
  }
  size_t num_columns() const { return schema_.num_columns(); }
  bool empty() const { return num_rows() == 0; }

  /// True when cells are stored as rows (references below are valid).
  bool has_rows() const { return columnar_ == nullptr; }
  /// True for a column-backed table that reads its backing through a row
  /// selection (`TableView::AsTable`); false for row-backed tables and for
  /// `FromColumnar` tables, whose rows and columns are the backing's own.
  bool has_selection() const { return selected_; }
  /// The backing columnar relation, or nullptr for row-backed tables.
  /// When `has_selection()`, this is the shared shadow the table selects
  /// from, not a columnar form of the table's own rows.
  const std::shared_ptr<const ColumnarTable>& columnar_backing() const {
    return columnar_;
  }

  const Row& row(size_t i) const {
    AUTOCAT_DCHECK(has_rows());
    return rows_[i];
  }
  const std::vector<Row>& rows() const {
    AUTOCAT_DCHECK(has_rows());
    return rows_;
  }

  /// Cell accessor; bounds unchecked in release builds. Row-backed only.
  const Value& ValueAt(size_t row, size_t col) const {
    AUTOCAT_DCHECK(has_rows());
    return rows_[row][col];
  }

  /// Mode-independent cell accessor: returns an owned copy, synthesized
  /// from the columnar arrays when column-backed.
  Value CellValue(size_t row, size_t col) const;

  /// Mode-independent row accessor: an owned copy of row `i`.
  Row CopyRow(size_t i) const;

  /// Mode-independent row reference: row `i` itself when row-backed,
  /// otherwise row `i` synthesized into `*scratch` (which the returned
  /// reference then points at). The reference lives until the next call
  /// with the same scratch.
  const Row& RowRef(size_t i, Row* scratch) const;

  /// Appends `row` after validating arity and coercing numeric cells to the
  /// declared column type. NULL is accepted in any column. Cells that
  /// already match the declared type are moved, not copied. Errors with
  /// kFailedPrecondition on column-backed tables.
  Status AppendRow(Row row);

  /// Bulk append: validates and coerces every row, then splices them in
  /// with a single capacity reservation. On any invalid row, nothing is
  /// appended (the whole batch is rejected, first error returned).
  Status AppendRows(std::vector<Row> rows);

  /// Reserves capacity for `n` additional rows beyond the current size.
  void Reserve(size_t n) {
    if (columnar_ == nullptr) {
      rows_.reserve(rows_.size() + n);
    }
  }

  /// Returns a table with the same schema containing the rows at `indices`
  /// (in the given order). Indices must be in range.
  Result<Table> SelectRows(const std::vector<size_t>& indices) const;

  /// Returns indices of the rows for which `pred` is true. On
  /// column-backed tables each candidate row is synthesized for the
  /// predicate (the columnar kernels are the fast path; this is the
  /// semantic fallback).
  std::vector<size_t> FilterIndices(
      const std::function<bool(const Row&)>& pred) const;

  /// Returns a table with only the named columns, in the given order.
  Result<Table> Project(const std::vector<std::string>& column_names) const;

  /// Sorted distinct non-NULL values of column `col`. String columns of
  /// a `FromColumnar` table answer straight from the sorted dictionary (a
  /// selection may hold only some of its values).
  Result<std::vector<Value>> DistinctValues(size_t col) const;

  /// Min and max of the non-NULL values in column `col`. Errors if the
  /// column has no non-NULL values.
  Result<std::pair<Value, Value>> MinMax(size_t col) const;

  /// Renders up to `max_rows` rows as an aligned ASCII table (for examples
  /// and debugging).
  std::string ToString(size_t max_rows = 20) const;

 private:
  // TableView::Materialize fills rows_ directly (one pass, no per-cell
  // Status plumbing), TableView::Create composes the column-backed maps,
  // and TableView::AsTable sets them; see storage/columnar.h.
  friend class TableView;

  // Column-backed mode: the backing row of table row `row`.
  size_t BackingRow(size_t row) const {
    return selected_ ? selection_[row] : row;
  }

  Schema schema_;
  std::vector<Row> rows_;
  // Column-backed mode: non-null backing, the table's row count, and the
  // two maps into the backing (see the class comment); rows_ empty.
  // Without a selection, table row r is backing row r.
  std::shared_ptr<const ColumnarTable> columnar_;
  size_t columnar_rows_ = 0;
  bool selected_ = false;
  std::vector<uint32_t> selection_;
  std::vector<uint32_t> projection_;
};

/// Approximate heap footprint of one cell: sizeof(Value) plus the string
/// payload's capacity.
size_t ApproxValueBytes(const Value& v);

/// Approximate heap footprint of a table: sizeof(Table), plus for a
/// row-backed table sizeof(Row) and ApproxValueBytes of every cell per
/// row, and for a column-backed one 4 bytes per selected row and per
/// projected column. A column-backed table's cells are not counted: they
/// belong to the shared backing (for a served result, the shadow the
/// `Database` owns while its table version is live). The result cache
/// accounts its entries with this.
size_t ApproxTableBytes(const Table& table);

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_TABLE_H_
