#ifndef AUTOCAT_STORAGE_TABLE_H_
#define AUTOCAT_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
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

/// An in-memory relation, in one of two roles:
///  - **builder** (row-backed, the default): `Table(schema)`, then
///    `AppendRow(s)` / `Reserve`. Appends validate arity and cell types
///    against the schema and coerce int64 into double columns (and vice
///    versa when lossless), so a stored column is always homogeneous. The
///    generator, the CSV reader and the workload count tables build
///    tables this way, and `ColumnarTable::Build` reads them into a
///    shadow through `row()`. Outside the library only perfbench's input
///    generator reads builder rows.
///  - **column-backed relation**: the cells live in a shared, immutable
///    `ColumnarTable` and no row vectors exist at all. Table row r is
///    backing row `backing_row(r)` and table column c is backing column
///    `backing_column(c)`. `FromColumnar` wraps a whole relation (the
///    maps are the identity): every table a `Database` holds is one, over
///    a built shadow or a mapped segment store. `Select` picks rows and
///    columns of a table through a selection vector: every query result
///    (`ExecuteQuery`, the cold path, the service) is one, and the
///    categorizer and the partitioners read it through its backing. The
///    table is immutable, `row()` must not be called (`has_rows()` is
///    false; debug builds check).
/// Either role is read through `CellValue`, `RowRef` and `ToString`,
/// which answer alike for equal cells.
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

  /// The rows of `base` listed in `rows` (in that order) projected to
  /// `columns` (in that order; empty = all columns), as a column-backed
  /// table with a selection. Over a column-backed base it shares the
  /// base's backing and composes the base's maps into its own, so no map
  /// is applied twice. Over a builder base it builds the base's shadow
  /// once and owns it; its coordinates are then the base's own. Either
  /// way it does not borrow `base`, which may be destroyed or replaced
  /// while the selection is live. Errors: an unknown column is kNotFound
  /// and a duplicate one kAlreadyExists (as `Schema` answers), a row
  /// index out of range kOutOfRange, and a `columnar` that is neither
  /// null nor the base's backing kInvalidArgument.
  static Result<Table> Select(const Table& base,
                              std::shared_ptr<const ColumnarTable> columnar,
                              std::vector<uint32_t> rows,
                              const std::vector<std::string>& columns);
  /// `Select`. Mirror only; delete with the mirror.
  static Result<Table> Create(const Table& base,
                              std::shared_ptr<const ColumnarTable> columnar,
                              std::vector<uint32_t> rows,
                              const std::vector<std::string>& columns) {
    return Select(base, std::move(columnar), std::move(rows), columns);
  }

  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    return columnar_ == nullptr ? rows_.size() : columnar_rows_;
  }
  size_t num_columns() const { return schema_.num_columns(); }
  bool empty() const { return num_rows() == 0; }

  /// True for a builder: its cells are stored as rows and `row()` is
  /// valid.
  bool has_rows() const { return columnar_ == nullptr; }
  /// True for a column-backed table that reads its backing through a row
  /// selection (`Select`); false for row-backed tables and for
  /// `FromColumnar` tables, whose rows are the backing's own.
  bool has_selection() const { return selected_; }
  /// The backing columnar relation, or nullptr for row-backed tables.
  /// When `has_selection()`, this is the shared shadow the table selects
  /// from, not a columnar form of the table's own rows.
  const std::shared_ptr<const ColumnarTable>& columnar_backing() const {
    return columnar_;
  }

  /// Column-backed only: the backing row of table row `row`.
  uint32_t backing_row(size_t row) const {
    AUTOCAT_DCHECK(!has_rows());
    return selected_ ? selection_[row] : static_cast<uint32_t>(row);
  }
  /// Column-backed only: the backing column of table column `col`.
  uint32_t backing_column(size_t col) const {
    AUTOCAT_DCHECK(!has_rows());
    return projection_[col];
  }
  /// The backing rows of a table with a selection, in table row order
  /// (empty without one).
  std::span<const uint32_t> selection() const { return selection_; }

  /// Builder row `i`. Row-backed only.
  const Row& row(size_t i) const {
    AUTOCAT_DCHECK(has_rows());
    return rows_[i];
  }

  /// Mode-independent cell accessor: returns an owned copy, synthesized
  /// from the columnar arrays when column-backed.
  Value CellValue(size_t row, size_t col) const;

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

  /// Renders up to `max_rows` rows as an aligned ASCII table (for examples
  /// and debugging).
  std::string ToString(size_t max_rows = 20) const;

 private:
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

/// Mirror only; delete with the mirror: a selection over a backing is a
/// `Table`.
using TableView = Table;

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
