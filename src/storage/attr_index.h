#ifndef AUTOCAT_STORAGE_ATTR_INDEX_H_
#define AUTOCAT_STORAGE_ATTR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/value.h"

namespace autocat {

/// Per-attribute access structure over one materialized query result,
/// built by the cold path's last step from the selection (see
/// exec/pipeline/cold_path.h).
///
/// An entry describes the *root-level* tuple set — every row of the
/// result, i.e. the identity tuple list 0..n-1 — in exactly the shape the
/// partitioners consume:
///   - numeric columns: the non-NULL, non-NaN (value, row) pairs sorted
///     ascending
///     (the `SortedNumericValues` shape; pairs are distinct because the
///     row index is unique, so the sorted order is a total order and any
///     correct sort produces the identical vector);
///   - dictionary-encoded categorical string columns: one group per
///     distinct value in ascending value order (== ascending dictionary
///     code order), each group's row indices ascending (the `GroupsOf`
///     shape).
/// Columns that fit neither shape (non-string categoricals) simply have
/// no entry and consumers fall back to their generic scan.
struct AttributeIndexEntry {
  /// Sorted non-NULL (value, row) pairs of a numeric column.
  bool has_sorted_values = false;
  std::vector<std::pair<double, size_t>> sorted_values;

  /// Ascending-value groups of a categorical string column.
  bool has_groups = false;
  std::vector<std::pair<Value, std::vector<size_t>>> groups;
};

/// One entry per result-schema column (same order). A consumer may use an
/// entry only for the identity tuple set over all `num_rows` rows — any
/// proper subset (or reordered set) must be rescanned, since the entry
/// has no way to restrict itself.
struct ResultAttributeIndex {
  size_t num_rows = 0;
  std::vector<AttributeIndexEntry> columns;

  const AttributeIndexEntry* entry(size_t col) const {
    return col < columns.size() ? &columns[col] : nullptr;
  }
};

/// True when `tuples` is exactly the identity list 0..n-1 over `n` rows —
/// the only tuple set a ResultAttributeIndex entry answers for. O(n) with
/// early exit; callers pay this only to avoid an O(n log n) rescan.
inline bool IsIdentityTupleSet(const std::vector<size_t>& tuples, size_t n) {
  if (tuples.size() != n) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    if (tuples[i] != i) {
      return false;
    }
  }
  return true;
}

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_ATTR_INDEX_H_
