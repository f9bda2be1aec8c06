#ifndef AUTOCAT_STORAGE_COLUMNAR_H_
#define AUTOCAT_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
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

/// Derives one column's arrays from its cells, the one place that knows
/// how a cell becomes a null bit, a value, a key code and a zone entry.
/// `ColumnarTable::Build` and the segment store's writer both encode
/// every column with it, so a mapped column equals its built shadow.
///
/// Feed every cell of the column twice, in the same multiset both times:
/// `Observe` each, then `Seal` once, then `Encode` each in row order,
/// then `Finish`. Every cell must be NULL or the declared type (aborts
/// otherwise). Key codes order as the cells' values:
///  - kString: the code of the cell's string in the sorted dictionary
///    (byte order, which is `Value` string order);
///  - kInt64/kDouble: the rank code, the index of the cell's value among
///    the column's distinct non-NULL, non-NaN values under the declared
///    kind. A numeric column compares `static_cast<double>` of an int64
///    cell (so 2^53 and 2^53 + 1 are one value, as -0.0 and 0.0 are); a
///    categorical int64 column compares exactly; a double column by `<`.
/// A NULL cell encodes as value 0 and code 0 (kString) or kNoKey; a NaN
/// cell's rank code is kNoKey. A kNull-typed column's cells are all NULL
/// and get no codes and no zones.
class ColumnEncoder {
 public:
  /// One encoded cell: its value bits (an int64 cast to uint64, a
  /// double's bit pattern, 0 for NULL and string cells) and key code.
  struct Cell {
    uint64_t bits = 0;
    uint32_t code = 0;
  };
  /// The column-wide arrays, handed over by `Finish`.
  struct Output {
    /// Bit r set <=> encoded cell r is NULL.
    std::vector<uint64_t> null_words;
    size_t null_count = 0;
    /// kString: the sorted distinct non-NULL strings.
    std::vector<std::string> dict;
    /// One entry per kZoneRows encoded cells (the last may be short).
    std::vector<ZoneEntry> zones;
  };

  ColumnEncoder(ValueType type, ColumnKind kind);

  void Observe(const Value& cell);
  /// Fixes the dictionary or rank domain; call after the last `Observe`.
  void Seal();
  /// Encodes the next cell in row order; it must have been observed.
  Cell Encode(const Value& cell);
  Output Finish() &&;

 private:
  // Transparent hash, so the dictionary is probed by string_view.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  // The zone the next cell lands in, starting a new one at a boundary.
  ZoneEntry& NextZone();
  // Widens the current zone's extrema to `v` (compared as T).
  template <typename T>
  void Widen(T v);

  ValueType type_;
  bool exact_;  // a categorical int64 column: rank cells exactly
  // kInt64/kDouble: the observed rank keys, deduplicated as they double
  // and sorted at Seal.
  std::vector<uint64_t> keys_;
  size_t distinct_ = 0;  // keys_.size() after the last deduplication
  // kString: each distinct string and, once sealed, its code.
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      dict_;
  size_t rows_ = 0;  // cells encoded
  Output out_;
  bool zone_seen_ = false;  // the current zone has an extremum yet
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
///  - `Build` derives an in-memory shadow of a `Table` (`Database`
///    installs each table it registers or puts as `Table::FromColumnar`
///    over one, and `ColumnarFor` returns it);
///  - `FromColumns` wraps columns whose spans point at externally owned
///    memory — the segment store (src/store/) uses it to expose the
///    arrays its writer derived with the same `ColumnEncoder`, mapped
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
    ///    (`ColumnEncoder`), and kNoKey for NULL and NaN cells.
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
    /// entries (`ColumnEncoder`). Empty for a zero-row table or a
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

  /// Builds a compact in-memory shadow of `table`'s rows (read through
  /// `RowRef`, so a selection's rows are its own): one `ColumnEncoder`
  /// per column observes every row, then encodes every row into the
  /// owned arrays; string columns then derive their posting lists. Rank
  /// codes follow the kind `table.schema()` declares. A table wrapping
  /// the shadow (`Table::FromColumnar`) must declare the same kinds.
  /// Requires `table.num_rows() <= UINT32_MAX` (callers gate; selection
  /// vectors are 32-bit). Aborts on a cell that is neither NULL nor the
  /// column's declared type: a builder's appends coerce, so only a
  /// column-backed table whose schema misdeclares its backing's types (a
  /// breach of `Table::FromColumnar`'s precondition) can carry one.
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
