#ifndef AUTOCAT_STORAGE_ATTR_INDEX_H_
#define AUTOCAT_STORAGE_ATTR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace autocat {

/// Per-attribute key order over one materialized query result, built by
/// the cold path's last step from the selection (see
/// exec/pipeline/cold_path.h).
///
/// An entry covers every row of the result, in exactly the order the
/// categorizer starts from (core/partition.h, `AttributeOrder`): it is the
/// level-1 order of its attribute, which the categorizer then narrows
/// level by level to the rows of the categories still to partition.
///   - numeric columns: the non-NULL, non-NaN (value, row) pairs sorted
///     ascending (pairs are distinct because the row index is unique, so
///     the sorted order is a total order and any correct sort produces the
///     identical vector);
///   - dictionary-encoded categorical string columns: the (dictionary
///     code, row) pairs of the non-NULL cells sorted ascending — the rows
///     of one value are contiguous, in value order (the dictionary is
///     sorted, so code order is value order). Codes index the dictionary
///     of the shadow the result was selected from.
/// Columns that fit neither shape (non-string categoricals) have no entry,
/// and the categorizer sorts their cells once per request instead.
struct AttributeIndexEntry {
  /// Sorted non-NULL, non-NaN (value, row) pairs of a numeric column.
  bool has_sorted_values = false;
  std::vector<std::pair<double, size_t>> sorted_values;

  /// Sorted non-NULL (dictionary code, row) pairs of a categorical string
  /// column.
  bool has_sorted_codes = false;
  std::vector<std::pair<uint32_t, uint32_t>> sorted_codes;
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
