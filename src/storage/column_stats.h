#ifndef AUTOCAT_STORAGE_COLUMN_STATS_H_
#define AUTOCAT_STORAGE_COLUMN_STATS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "storage/table.h"

namespace autocat {

/// Per-column summary statistics used by the partitioners and generators:
/// value frequencies, null count, and (for numeric columns) min/max.
struct ColumnStats {
  std::string column_name;
  size_t row_count = 0;
  size_t null_count = 0;
  /// Distinct non-NULL values with occurrence counts, in value order.
  std::map<Value, size_t> value_counts;
  /// Min/max over non-NULL values; meaningful only when
  /// `row_count > null_count`.
  Value min;
  Value max;

  size_t num_distinct() const { return value_counts.size(); }
  size_t non_null_count() const { return row_count - null_count; }

  /// Computes stats for column `col` of `table`.
  static Result<ColumnStats> Compute(const Table& table, size_t col);
};

/// One bucket of an equi-width histogram over a numeric column:
/// [lo, hi) except the last bucket, which is [lo, hi].
struct HistogramBucket {
  double lo = 0;
  double hi = 0;
  size_t count = 0;
};

/// Builds an equi-width histogram with `num_buckets` buckets over the
/// non-NULL values of numeric column `col`. Errors for non-numeric columns,
/// zero buckets, or all-NULL columns.
Result<std::vector<HistogramBucket>> EquiWidthHistogram(const Table& table,
                                                        size_t col,
                                                        size_t num_buckets);

}  // namespace autocat

#endif  // AUTOCAT_STORAGE_COLUMN_STATS_H_
