#ifndef AUTOCAT_CORE_PARTITION_H_
#define AUTOCAT_CORE_PARTITION_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/category.h"
#include "storage/attr_index.h"
#include "storage/columnar.h"
#include "workload/counts.h"

namespace autocat {

struct CategorizerOptions;  // core/categorizer.h

/// One category produced by a partitioner: its label and tset as row
/// indices into the result table. Order within the returned vector is the
/// presentation order.
struct PartitionCategory {
  CategoryLabel label;
  std::vector<size_t> tuples;
};

/// One attribute's key order over a set of table rows, split into
/// contiguous runs — one run per category node being partitioned. Every
/// partitioner reads its input through a run: the categorizer builds one
/// order per retained attribute per request and narrows it level by level
/// (`Distribute`), and the per-node functions below build a one-run order
/// over their `tuples`.
///
/// An order holds the (key, row) pairs of the non-NULL, non-NaN cells in
/// ascending (key, row) order, so the rows of one value are contiguous
/// within a run and in row order; a NaN cell joins no category, as NULL
/// does not (and as CategoryLabel::Matches answers). The pairs come from
/// `SortedKeys` (storage/attr_index.h), under the kind the table's schema
/// declares for the column, re-keyed densely: key k is the k-th smallest
/// distinct value among the order's rows. A numeric order compares the
/// `static_cast<double>` of an int64 cell, so int64 cells that round to
/// one double (2^53 and 2^53 + 1, say) share a key and are ordered by
/// row, as -0.0 and 0.0 are; a categorical int64 order keeps them apart.
/// Cells are read from the columnar arrays of a column-backed table (a
/// builder is refused), which must outlive the order.
class AttributeOrder {
 public:
  /// Builds the order of column `col` of `table` over `rows` (null =
  /// every table row) as a single run. `entry`, used only when `rows` is
  /// null, is the cold pipeline's attribute-index entry for the column
  /// over the same table: its sorted keys are re-keyed instead of sorting
  /// the column again. kInvalidArgument for a builder table or one with
  /// 2^32 rows or more.
  static Result<AttributeOrder> Build(const Table& table, size_t col,
                                      const std::vector<size_t>* rows,
                                      const AttributeIndexEntry* entry);

  /// True when the table's schema declares the column numeric.
  bool numeric() const { return numeric_; }
  size_t num_runs() const { return offsets_.size() - 1; }
  /// Run `run`.
  std::span<const KeyOrderEntry> run(size_t run) const;
  /// Number of distinct keys.
  size_t num_keys() const {
    return numeric_ ? key_numbers_.size() : key_values_.size();
  }
  /// The value of key `key` of a categorical order: the cell of the
  /// lowest row holding it (values of one key compare equal).
  const Value& key_value(uint32_t key) const { return key_values_[key]; }
  /// The value of key `key` of a numeric order, as a double.
  double key_number(uint32_t key) const { return key_numbers_[key]; }
  /// The cell of table row `row`.
  Value cell(uint32_t row) const;

  /// Redistributes the entries into `num_runs` runs: an entry whose row r
  /// has `slot_of_row[r] >= 0` moves to run `slot_of_row[r]`, the others
  /// are dropped. The pass is stable, so every new run whose rows came
  /// from one old run stays in key order. Reads `slot_of_row` only at the
  /// rows of current entries.
  void Distribute(const std::vector<int32_t>& slot_of_row, size_t num_runs);

 private:
  const Table* table_ = nullptr;
  const ColumnarTable::Column* column_ = nullptr;
  bool numeric_ = false;
  std::vector<KeyOrderEntry> entries_;
  // Per key: its value (categorical orders) or its double (numeric ones).
  std::vector<Value> key_values_;
  std::vector<double> key_numbers_;
  // Run r is entries [offsets_[r], offsets_[r + 1]).
  std::vector<size_t> offsets_ = {0, 0};
};

/// One bucket of a numeric partition: [lo, hi), or [lo, hi] when
/// `closed`, holding the `count` run entries starting at `begin`.
struct NumericBucket {
  double lo = 0;
  double hi = 0;
  bool closed = false;
  size_t begin = 0;
  size_t count = 0;
};

/// Section 5.1.3 over one numeric run: picks the top necessary split
/// points by goodness score SUM(start_v, end_v) from the workload's
/// SplitPoints store and returns the non-empty buckets in ascending value
/// order. `query_range`, when non-null, supplies vmin/vmax from the user
/// query's selection condition; otherwise the run's values define the
/// range. Counts are rank differences, one binary search per split point
/// the greedy selection visits. `run` is a run of numeric `order`.
/// Of `options` it reads M and the numeric bucket-count fields.
std::vector<NumericBucket> PlanNumericBuckets(
    const std::string& attribute, const WorkloadStats& stats,
    const CategorizerOptions& options, const NumericRange* query_range,
    const AttributeOrder& order, std::span<const KeyOrderEntry> run);

/// Section 6.1 equi-width buckets over one numeric run (see
/// `PartitionNumericEquiWidth`). `width` must be positive and finite.
/// `run` is a run of numeric `order`.
std::vector<NumericBucket> EquiWidthBuckets(
    double width, const NumericRange* query_range, const AttributeOrder& order,
    std::span<const KeyOrderEntry> run);

/// The partition the buckets describe: one category per bucket, its
/// tuples the bucket's rows in run order ((value, row) order).
std::vector<PartitionCategory> SliceBuckets(
    const std::string& attribute, const std::vector<NumericBucket>& buckets,
    std::span<const KeyOrderEntry> run);

/// One distinct key of a categorical run: its `count` entries start at
/// `begin`.
struct KeyGroup {
  uint32_t key = 0;
  size_t begin = 0;
  size_t count = 0;
};

/// The distinct keys of a categorical run in ascending key (= value)
/// order.
std::vector<KeyGroup> GroupKeys(std::span<const KeyOrderEntry> run);

/// Section 5.1.2 presentation order: `groups` (ascending key order)
/// stably sorted by decreasing occurrence count `occ_of_key[key]`.
void SortGroupsByOccurrence(const std::vector<size_t>& occ_of_key,
                            std::vector<KeyGroup>* groups);

/// The single-value categories of `groups`, in that order, over a node
/// whose tset is `parent_tuples`: each category's tuples are the parent's
/// tuples holding its value, in the parent's order, and its label the
/// cell of its first tuple (values of one key compare equal, but -0.0 and
/// 0.0 differ in bits). `run` is the node's run of categorical `order`,
/// and `group_of_row` a scratch array with one slot per table row.
std::vector<PartitionCategory> PartitionKeyGroups(
    const std::string& attribute, const AttributeOrder& order,
    std::span<const KeyOrderEntry> run, const std::vector<KeyGroup>& groups,
    const std::vector<size_t>& parent_tuples,
    std::vector<uint32_t>* group_of_row);

/// Per-node entry points: each builds a one-run order over `tuples`
/// (rows of the column-backed `table`, see `AttributeOrder`) and
/// partitions it. The categorizer does not call these; it partitions its
/// narrowed runs directly with the same functions, so both produce the
/// identical partition of a node. Each is kInvalidArgument on a builder
/// table and on a column whose declared kind is not its own: an order
/// keys a column by its declared kind, so the other kind's partition
/// would be cut from the wrong order.

/// Cost-based categorical partitioning (Section 5.1.2): one single-value
/// category per distinct value of `attribute` among `tuples`, presented in
/// decreasing occurrence count occ(v) (ties in value order). Tuples with a
/// NULL (or NaN) cell are not placed in any category.
Result<std::vector<PartitionCategory>> PartitionCategorical(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats);

/// Cost-based numeric partitioning (Section 5.1.3, see
/// `PlanNumericBuckets`), buckets in ascending value order. Empty buckets
/// are dropped. Tuples with a NULL or NaN cell are not placed in any
/// bucket.
Result<std::vector<PartitionCategory>> PartitionNumeric(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const CategorizerOptions& options, const NumericRange* query_range);

/// Baseline categorical partitioning (Section 6.1, 'No cost'):
/// single-value categories in arbitrary order — value order, shuffled when
/// `rng` is provided.
Result<std::vector<PartitionCategory>> PartitionCategoricalArbitrary(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, Random* rng);

/// Baseline numeric partitioning (Section 6.1): equi-width buckets of the
/// given width aligned to multiples of the width, empty buckets removed.
/// NULL and NaN cells are not placed, as in `PartitionNumeric`. The width
/// must be positive and finite. A value range the width cannot cut (an
/// infinite cell, steps too small to advance near int64-extreme cells, or
/// more than 2^20 buckets) becomes one closed bucket holding every value.
Result<std::vector<PartitionCategory>> PartitionNumericEquiWidth(
    const Table& table, const std::vector<size_t>& tuples,
    const std::string& attribute, double width,
    const NumericRange* query_range);

/// The table the partitioners read for `result`: `result` itself when it
/// is column-backed, otherwise a column-backed copy of it over a shadow
/// built once, held in `*copy`, whose rows are `result`'s rows.
const Table& ColumnBacked(const Table& result, std::optional<Table>* copy);

/// Invariant sweep over a numeric partitioning: every label is a numeric
/// bucket on one shared attribute, buckets are in ascending value order and
/// pairwise non-overlapping (next.lo >= prev.hi; only the final bucket may
/// close its upper end), each bucket is non-degenerate and non-empty, and
/// the tuple sets are pairwise disjoint. Returns the first violation.
/// Partitioners run this under AUTOCAT_DCHECK before returning.
Status ValidateNumericPartition(const std::vector<PartitionCategory>& parts);

/// Invariant sweep over a categorical partitioning: single shared
/// attribute, categorical labels with pairwise-disjoint value sets, and
/// non-empty pairwise-disjoint tuple sets. Returns the first violation.
Status ValidateCategoricalPartition(
    const std::vector<PartitionCategory>& parts);

}  // namespace autocat

#endif  // AUTOCAT_CORE_PARTITION_H_
