#ifndef AUTOCAT_STORAGE_ATTR_INDEX_H_
#define AUTOCAT_STORAGE_ATTR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "storage/columnar.h"
#include "storage/schema.h"

namespace autocat {

/// One entry of an attribute's key order: (key, view row). Keys order as
/// the cells' values do under the column's declared kind, and equal keys
/// mean equal values.
using KeyOrderEntry = std::pair<uint32_t, uint32_t>;

/// The one producer of attribute orders: the (key, position) pair of
/// every non-NULL, non-NaN cell of `column` at base rows `selection[p]`,
/// p in `positions` (distinct, in any order; null = every position of
/// `selection`), sorted by (key, position). Keys follow `kind`: a numeric
/// column compares `static_cast<double>` of an int64 cell, so 2^53 and
/// 2^53 + 1 share a key and are ordered by position, as -0.0 and 0.0 are;
/// a categorical int64 column compares exactly, a double column by `<`.
///   - A column with codes (every string column, and the int64/double
///     columns of a `ColumnarTable::Build` shadow) gathers them in
///     position order and radix-sorts: as many 8-bit passes as the
///     largest gathered key needs. The keys are the column's own codes.
///   - A column without (a segment-store wrapped int64/double column)
///     comparison-sorts its cells and ranks them: the keys are dense ranks
///     over the given positions.
/// Either way the pairs spell the same order, so a consumer may compare
/// keys only within one call's output.
std::vector<KeyOrderEntry> SortedKeys(const ColumnarTable::Column& column,
                                      ColumnKind kind,
                                      std::span<const uint32_t> selection,
                                      const std::vector<uint32_t>* positions);

/// `SortedKeys` of view column `col` over view rows `positions` (null =
/// every view row), under the kind the view's schema declares.
std::vector<KeyOrderEntry> SortedKeys(const TableView& view, size_t col,
                                      const std::vector<uint32_t>* positions);

/// Per-attribute key order over one materialized query result, built by
/// the cold path's last step from the selection (see
/// exec/pipeline/cold_path.h): `SortedKeys` of the column over every
/// result row. It is the level-1 order of its attribute, which the
/// categorizer re-keys densely and narrows level by level to the rows of
/// the categories still to partition (core/partition.h,
/// `AttributeOrder`).
struct AttributeIndexEntry {
  /// False for a column the index skipped (not a partitioner input).
  bool has_sorted_keys = false;
  std::vector<KeyOrderEntry> sorted_keys;
};

/// One entry per result-schema column (same order). Rows are result rows
/// (selection positions), so an entry is valid only with a view of the
/// same selection over the same shadow.
struct ResultAttributeIndex {
  size_t num_rows = 0;
  std::vector<AttributeIndexEntry> columns;

  const AttributeIndexEntry* entry(size_t col) const {
    return col < columns.size() ? &columns[col] : nullptr;
  }
};

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_ATTR_INDEX_H_
