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
/// counts plus the exact extrema of the slice's non-NULL values in the
/// column's physical domain — int64 cast to uint64, double bit pattern,
/// or dictionary code. For double columns NaN cells are excluded from
/// the extrema — `has_nan` records whether any were present (a slice
/// whose valid cells are all NaN keeps extrema of 0) — so range proofs
/// must special-case NaN. Meaningless extrema (valid_count == 0) are 0.
struct ZoneEntry {
  uint32_t row_count = 0;
  uint32_t valid_count = 0;
  uint64_t min_bits = 0;
  uint64_t max_bits = 0;
  bool has_nan = false;
};

/// Folds one column's cells, fed in row order, into its exact per-zone
/// entries. `ColumnarTable::Build` and the segment store's writer both
/// derive a column's zones with it, so a mapped column's zones equal its
/// built shadow's.
class ZoneAccumulator {
 public:
  void AddNull();
  void AddInt64(int64_t v);
  void AddDouble(double v);
  void AddCode(uint32_t code);
  /// The entries of the cells added so far (the last zone may be short).
  std::vector<ZoneEntry> Finish() &&;

 private:
  // The entry the next cell lands in, starting a new one at a boundary.
  ZoneEntry& Next();
  // Widens the current entry's extrema to `v` (compared as T).
  template <typename T>
  void Widen(T v);

  std::vector<ZoneEntry> zones_;
  bool seen_ = false;  // the current entry has an extremum yet
};

/// The rank-code domain of one int64 or double column: the sorted
/// distinct non-NULL, non-NaN values of its cells under the column's
/// declared kind. A numeric column compares `static_cast<double>` of an
/// int64 cell (so 2^53 and 2^53 + 1 are one value, as -0.0 and 0.0 are);
/// a categorical int64 column compares exactly; a double column by `<`.
/// A cell's rank code is the index of its value in the domain.
/// `ColumnarTable::Build` adds every cell; the segment store's writer
/// adds each row as it arrives and keeps only the distinct values.
class RankDomain {
 public:
  RankDomain(ValueType type, ColumnKind kind);

  /// Adds a non-NULL cell of the column's type (a NaN adds nothing).
  void Add(int64_t cell) { Push(Key(cell)); }
  void Add(double cell);
  /// Sorts and deduplicates the added values; call before `Code`.
  void Seal();
  /// The rank code of a non-NULL cell whose value was added: kNoKey for
  /// NaN.
  uint32_t Code(int64_t cell) const { return Find(Key(cell)); }
  uint32_t Code(double cell) const;

 private:
  // The order-preserving image of a cell's value under the domain's
  // comparison (a double's must not be NaN).
  uint64_t Key(int64_t cell) const;
  static uint64_t Key(double cell);
  void Push(uint64_t key);
  uint32_t Find(uint64_t key) const;

  bool exact_;  // a categorical int64 column: compare int64 cells
  std::vector<uint64_t> keys_;
  size_t distinct_ = 0;  // keys_.size() after the last deduplication
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
/// is exactly grouping or comparing by value. Int64 and double columns
/// carry rank codes of the same kind, so every column has one key domain:
/// a `uint32_t` per row whose order is value order (`Column::codes`),
/// which the categorizer's attribute orders sort by
/// (storage/attr_index.h).
///
/// Two constructions exist:
///  - `Build` derives an in-memory shadow of a builder `Table`
///    (`Database` installs each table it registers or puts as
///    `Table::FromColumnar` over one, and `ColumnarFor` returns it);
///  - `FromColumns` wraps columns whose spans point at externally owned
///    memory — the segment store (src/store/) uses it to expose the
///    arrays its writer derived with `Build`'s routines, mapped
///    zero-copy, with `owner` keeping the mapping alive for the table's
///    lifetime.
///
/// Either way the table is immutable after construction, every column
/// is typed (each cell is the declared type or NULL, see `Build`), and
/// every column holds every array `Build` derives.
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
    /// One key per row, ordered as the cells' values:
    ///  - kString: the dictionary code (0 for NULL cells);
    ///  - kInt64/kDouble: the rank code under the column's declared kind
    ///    (`RankDomain`), and kNoKey for NULL and NaN cells.
    ColumnSpan<uint32_t> codes;
    /// type == kString: sorted distinct non-NULL strings.
    std::vector<std::string> dict;
    /// kString columns: CSR posting lists (`DerivePostings`), one per
    /// dictionary code. The rows holding code c are
    /// `posting_rows[posting_offsets[c] .. posting_offsets[c + 1])`, in
    /// ascending order; NULL rows are in no list. `posting_offsets` has
    /// dict.size() + 1 entries (`{0}` for an empty dictionary), so
    /// `posting_rows` holds num_rows - null_count entries. The compiled
    /// filter unions a value set's lists into its candidate rows instead
    /// of testing every row.
    std::vector<uint32_t> posting_offsets;
    std::vector<uint32_t> posting_rows;
    /// Per-zone (kZoneRows-row) metadata: ceil(num_rows / kZoneRows)
    /// entries (`ZoneAccumulator`). Empty for a zero-row table or a
    /// kNull-typed column.
    std::vector<ZoneEntry> zones;

    /// Owned backing arrays. `Build` fills these and points the spans at
    /// them; the segment store leaves them empty (the spans point into
    /// the mapping). Move-only: moving a
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

  /// Builds an in-memory shadow in two passes per column: values, nulls,
  /// zones and the rank domain, then rank codes — for strings the
  /// dictionary, then codes and zones, then the posting lists. Rank codes
  /// follow the kind `table.schema()` declares. A table wrapping the shadow
  /// (`Table::FromColumnar`) must declare the same kinds.
  /// Requires `table.num_rows() <= UINT32_MAX`
  /// (callers gate; selection vectors are 32-bit). A column-backed
  /// `table` (one with a selection, typically) is gathered into a builder
  /// first, so the result is compact. Aborts on a cell that is neither
  /// NULL nor the column's declared type: a builder's appends coerce, so
  /// only a column-backed table whose schema misdeclares its backing's
  /// types (a breach of `Table::FromColumnar`'s precondition) can carry
  /// one.
  static ColumnarTable Build(const Table& table);

  /// Wraps externally built columns (the segment store's open path),
  /// each holding the arrays `Build` would derive from the same cells.
  /// `owner` is an opaque keep-alive for whatever memory the spans
  /// borrow — typically the store's file mapping.
  static ColumnarTable FromColumns(size_t num_rows,
                                   std::vector<Column> columns,
                                   std::shared_ptr<const void> owner);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t c) const { return columns_[c]; }

  /// Fills a kString column's `posting_offsets` and `posting_rows` from
  /// its `codes` and null bitmap over `num_rows` rows, sizing them first
  /// (within any capacity they hold). Every non-NULL code must index the
  /// dictionary.
  static void DerivePostings(size_t num_rows, Column* col);

 private:
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
  // Keep-alive for borrowed span memory (null for in-memory shadows).
  std::shared_ptr<const void> owner_;
};

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_COLUMNAR_H_
