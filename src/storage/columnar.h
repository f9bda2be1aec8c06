#ifndef AUTOCAT_STORAGE_COLUMNAR_H_
#define AUTOCAT_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace autocat {

/// Rows covered by one zone-map entry. Equal to the execution layer's
/// morsel width (exec/pipeline/morsel.h static_asserts the two match, so
/// zone entry z describes exactly the rows of morsel z) and a multiple of
/// 64, so each entry owns whole null-bitmap words.
inline constexpr size_t kZoneRows = 2048;

/// The rank code of a NULL or NaN int64/double cell: no key (see
/// `ColumnarTable::Column::codes`).
inline constexpr uint32_t kNoKey = std::numeric_limits<uint32_t>::max();

/// Zone metadata for one kZoneRows-row slice of a column: row/valid
/// counts plus the extrema of the slice's non-NULL values in the
/// column's physical domain — int64 cast to uint64, double bit pattern,
/// or dictionary code (the segment store's SegmentMeta convention).
/// Extrema may describe a superset of the slice (the store replicates
/// per-segment extrema across the segment's zones); consumers may only
/// draw conclusions that stay valid under widening. For double columns
/// NaN cells are excluded from the extrema — `has_nan` records whether
/// any were present (a slice whose valid cells are all NaN keeps extrema
/// of 0) — so range proofs must special-case NaN. Meaningless extrema
/// (valid_count == 0) are 0.
struct ZoneEntry {
  uint32_t row_count = 0;
  uint32_t valid_count = 0;
  uint64_t min_bits = 0;
  uint64_t max_bits = 0;
  bool has_nan = false;
};

/// A borrowed, read-only view of a contiguous typed array. The columnar
/// kernels and partitioners read column data through this type so the
/// same code path serves both in-memory shadows (the span points at a
/// vector owned by the column) and mapped segment stores (the span points
/// straight into the mmapped file, zero-copy). Mirrors the subset of the
/// std::vector read API the consumers use.
template <typename T>
class ColumnSpan {
 public:
  ColumnSpan() = default;
  ColumnSpan(const T* data, size_t size) : data_(data), size_(size) {}
  explicit ColumnSpan(const std::vector<T>& v)
      : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

/// A read-only columnar representation of a relation: per column, one
/// contiguous typed array plus a null bitmap. Strings are
/// dictionary-encoded against a *sorted* dictionary, so dictionary-code
/// order equals `Value` comparison order — grouping or comparing by code
/// is exactly grouping or comparing by value. A built shadow gives its
/// int64 and double columns rank codes of the same kind, so every column
/// of it has one key domain: a `uint32_t` per row whose order is value
/// order (`Column::codes`), which the categorizer's attribute orders sort
/// by (storage/attr_index.h).
///
/// Two constructions exist:
///  - `Build` derives an in-memory shadow of a row-store `Table`
///    (`Database` installs each table it registers or puts as
///    `Table::FromColumnar` over one, and `ColumnarFor` returns it);
///  - `FromColumns` wraps columns whose spans point at externally owned
///    memory — the segment store (src/store/) uses it to expose mapped,
///    decompressed-or-raw column segments zero-copy, with `owner` keeping
///    the mapping alive for the table's lifetime.
///
/// Either way the table is immutable after construction, and every
/// column is typed: each cell is the declared type or NULL (see `Build`).
class ColumnarTable {
 public:
  struct Column {
    /// Declared storage type. Every cell is this type or NULL.
    ValueType type = ValueType::kNull;
    size_t null_count = 0;
    /// Bit r set <=> row r is NULL. size = ceil(num_rows / 64).
    ColumnSpan<uint64_t> null_words;
    /// type == kInt64: one entry per row (0 for NULL cells).
    ColumnSpan<int64_t> i64;
    /// type == kDouble: one entry per row (0 for NULL cells).
    ColumnSpan<double> f64;
    /// One key per row, ordered as the cells' values (see `Build`):
    ///  - kString: the dictionary code (0 for NULL cells);
    ///  - kInt64/kDouble columns built by `Build`: the rank code, the
    ///    cell's rank among the column's distinct non-NULL, non-NaN values
    ///    under its declared kind — numeric compares `static_cast<double>`
    ///    of the cell (so 2^53 and 2^53 + 1 share a code, as -0.0 and 0.0
    ///    do), categorical int64 compares exactly — and kNoKey for NULL and
    ///    NaN cells. Empty for segment-store wrapped int64/double columns,
    ///    whose consumers rank the cells themselves
    ///    (storage/attr_index.h, `SortedKeys`).
    ColumnSpan<uint32_t> codes;
    /// type == kString: sorted distinct non-NULL strings.
    std::vector<std::string> dict;
    /// kString columns built by `Build`: CSR posting lists, one per
    /// dictionary code. The rows holding code c are
    /// `posting_rows[posting_offsets[c] .. posting_offsets[c + 1])`, in
    /// ascending order; NULL rows are in no list. `posting_offsets` has
    /// dict.size() + 1 entries (`{0}` for an empty dictionary), so
    /// `posting_rows` holds num_rows - null_count entries. The compiled
    /// filter unions a value set's lists into its candidate rows instead
    /// of testing every row. Empty for segment-store wrapped columns, and
    /// consumers must fall back.
    std::vector<uint32_t> posting_offsets;
    std::vector<uint32_t> posting_rows;
    /// Per-zone (kZoneRows-row) metadata: ceil(num_rows / kZoneRows)
    /// entries — exact for `Build` shadows, segment-replicated extrema
    /// with exact per-zone counts for store-mapped columns. Empty for a
    /// zero-row table or a kNull-typed column.
    std::vector<ZoneEntry> zones;

    /// Owned backing arrays. `Build` fills these and points the spans at
    /// them; the segment store leaves raw-encoded arrays here empty (the
    /// spans point into the mapping) and fills only what it had to
    /// decode (delta/varint-compressed numerics). Move-only: moving a
    /// vector preserves its heap buffer, so the spans stay valid; a copy
    /// would leave them pointing at the source's storage.
    std::vector<uint64_t> owned_null_words;
    std::vector<int64_t> owned_i64;
    std::vector<double> owned_f64;
    std::vector<uint32_t> owned_codes;

    Column() = default;
    Column(const Column&) = delete;
    Column& operator=(const Column&) = delete;
    Column(Column&&) = default;
    Column& operator=(Column&&) = default;

    /// Points each span at its owned vector (call after filling them).
    void PointAtOwned() {
      null_words = ColumnSpan<uint64_t>(owned_null_words);
      i64 = ColumnSpan<int64_t>(owned_i64);
      f64 = ColumnSpan<double>(owned_f64);
      codes = ColumnSpan<uint32_t>(owned_codes);
    }

    bool IsNull(size_t row) const {
      return (null_words[row >> 6] >> (row & 63)) & 1;
    }

    /// Row `row`'s cell as an owned Value: NULL or the declared type,
    /// bit-identical to the cell the column was built from.
    Value CellValue(size_t row) const;
  };

  ColumnarTable() = default;
  ColumnarTable(const ColumnarTable&) = delete;
  ColumnarTable& operator=(const ColumnarTable&) = delete;
  ColumnarTable(ColumnarTable&&) = default;
  ColumnarTable& operator=(ColumnarTable&&) = default;

  /// Builds an in-memory shadow in one pass per column (three for
  /// strings: dictionary, codes with per-code counts, posting lists), plus
  /// one sort per int64/double column for its rank codes, which follow
  /// the kind `table.schema()` declares. A table wrapping the shadow
  /// (`Table::FromColumnar`) must declare the same kinds.
  /// Requires `table.num_rows() <= UINT32_MAX`
  /// (callers gate; selection vectors are 32-bit). A column-backed
  /// `table` (one with a selection, typically) is gathered into rows
  /// first, so the result is compact. Aborts on a cell that
  /// is neither NULL nor the column's declared type: `Table::AppendRow`
  /// coerces, so only rows handed to `Table::FromValidatedRows` in breach
  /// of its precondition can carry one.
  static ColumnarTable Build(const Table& table);

  /// Wraps externally built columns (the segment store's open path).
  /// `owner` is an opaque keep-alive for whatever memory the spans
  /// borrow — typically the store's file mapping.
  static ColumnarTable FromColumns(size_t num_rows,
                                   std::vector<Column> columns,
                                   std::shared_ptr<const void> owner);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t c) const { return columns_[c]; }

 private:
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
  // Keep-alive for borrowed span memory (null for in-memory shadows).
  std::shared_ptr<const void> owner_;
};

/// A zero-copy view over a base table's columnar form: a selection
/// vector of row indices plus a projection map of column indices, both
/// into `columnar()`. This is the result representation on the cold
/// categorization path — the filter kernels emit the selection,
/// partitioners/stats/ranking read cells through the view's columns, and
/// `AsTable()` wraps it as the served result table without copying a
/// cell (`Materialize()` gathers an owned row-store copy instead).
///
/// Every view has a `columnar()`. Over a column-backed base it is the
/// base's backing, and the base's selection and projection are composed
/// into the view's, so no map is applied twice. Over a row-backed base
/// (the offline `Categorize(const Table&)` entry points and tests) the
/// view builds the base's shadow once and owns it; its coordinates are
/// then the base's own. Either way the view shares its columnar form and
/// does not borrow the base, which may be destroyed or replaced while the
/// view is live. View row i of `AsTable()` and `Materialize()` is view
/// row i, so tuple indices computed through the view index either table
/// directly.
class TableView {
 public:
  TableView() = default;

  /// A view of every row and column of `base`. `columnar` must be null or
  /// the base's backing (CHECK).
  static TableView All(const Table& base,
                       std::shared_ptr<const ColumnarTable> columnar);

  /// A view of the base rows listed in `rows` (in that order) projected to
  /// `columns` (in that order; empty = all columns). Errors mirror
  /// `Table::Project` (unknown / duplicate column) and `Table::SelectRows`
  /// (row index out of range); a `columnar` that is neither null nor the
  /// base's backing is kInvalidArgument.
  static Result<TableView> Create(
      const Table& base, std::shared_ptr<const ColumnarTable> columnar,
      std::vector<uint32_t> rows, const std::vector<std::string>& columns);

  /// The columnar form the view reads; null only for a default-built
  /// view.
  const ColumnarTable* columnar() const { return columnar_.get(); }
  /// Schema of the *projected* view.
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return projection_.size(); }

  /// Row index of view row `row` in `columnar()`.
  uint32_t base_row(size_t row) const { return rows_[row]; }
  /// Column index of view column `col` in `columnar()`.
  size_t base_column(size_t col) const { return projection_[col]; }
  const std::vector<uint32_t>& selection() const { return rows_; }

  /// Copies the view into an owned row-store table, each cell
  /// synthesized from the columnar arrays (bit-identical to the cell the
  /// column was built from).
  Table Materialize() const;

  /// The view as an immutable column-backed table over `columnar()`,
  /// which it shares: the selection and projection are copied, no cell
  /// is. Every `Table` method answers on it what it answers on
  /// `Materialize()`. Requires a non-null `columnar()`.
  Table AsTable() const;

 private:
  std::shared_ptr<const ColumnarTable> columnar_;
  std::vector<uint32_t> rows_;
  std::vector<size_t> projection_;
  Schema schema_;
};

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_COLUMNAR_H_
