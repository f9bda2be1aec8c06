#ifndef AUTOCAT_STORAGE_ATTR_INDEX_H_
#define AUTOCAT_STORAGE_ATTR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/columnar.h"
#include "storage/schema.h"

namespace autocat {

/// One entry of an attribute's key order: (key, table row). Keys order as
/// the cells' values do under the column's declared kind, and equal keys
/// mean equal values.
using KeyOrderEntry = std::pair<uint32_t, uint32_t>;

/// The one producer of attribute orders: the (key, position) pair of
/// every non-NULL, non-NaN cell of `column` at base rows `selection[p]`
/// (row p itself when `selection` is null), p in `positions` (distinct,
/// in any order; null = every position below `num_rows`), sorted by
/// (key, position). The keys are the column's own codes (its dictionary
/// or rank codes, see `ColumnarTable::Column::codes`), gathered in
/// position order and radix-sorted: as many 8-bit passes as the largest
/// gathered key needs.
std::vector<KeyOrderEntry> SortedKeys(const ColumnarTable::Column& column,
                                      size_t num_rows,
                                      const uint32_t* selection,
                                      const std::vector<uint32_t>* positions);

/// `SortedKeys` of column `col` of a column-backed `table` over its rows
/// `positions` (null = every row).
/// A builder table has no backing to read (CHECK).
std::vector<KeyOrderEntry> SortedKeys(const Table& table, size_t col,
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
/// (selection positions), so an entry is valid only with the result table
/// it was built from.
struct ResultAttributeIndex {
  size_t num_rows = 0;
  std::vector<AttributeIndexEntry> columns;

  const AttributeIndexEntry* entry(size_t col) const {
    return col < columns.size() ? &columns[col] : nullptr;
  }
};

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_ATTR_INDEX_H_
