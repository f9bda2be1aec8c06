#ifndef AUTOCAT_CORE_PARTITION_H_
#define AUTOCAT_CORE_PARTITION_H_

#include <cstdint>
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

/// One category produced by a partitioner: its label and tset as row
/// indices into the result table. Order within the returned vector is the
/// presentation order.
struct PartitionCategory {
  CategoryLabel label;
  std::vector<size_t> tuples;
};

/// Options for cost-based numeric partitioning (Section 5.1.3).
struct NumericPartitionOptions {
  /// Fixed bucket count m; 0 derives m = clamp(2*ceil(n / M), 2,
  /// max_buckets) from the tuple count n.
  size_t num_buckets = 0;
  /// M, the per-category tuple budget used to derive m.
  size_t max_tuples_per_category = 20;
  size_t max_buckets = 10;
  /// A split point is "unnecessary" (skipped) when an adjacent resulting
  /// bucket would hold fewer than this many tuples.
  size_t min_bucket_tuples = 1;
  /// When true (and num_buckets == 0), m is determined by the goodness
  /// distribution instead (the paper: "the goodness metric may be used as
  /// a basis for automatically determining m"): candidates are taken in
  /// decreasing goodness while their goodness stays at least
  /// `goodness_fraction` of the best candidate's, capped at
  /// max_buckets - 1 split points.
  bool auto_buckets = false;
  double goodness_fraction = 0.3;
};

/// A numeric order entry: (cell value, view row).
using NumericOrderEntry = std::pair<double, size_t>;
/// A categorical order entry: (key, view row). A key is the dense rank of
/// the cell's distinct value among the order's rows, so key order is value
/// order.
using KeyOrderEntry = std::pair<uint32_t, uint32_t>;

/// One attribute's key order over a set of view rows, split into
/// contiguous runs — one run per category node being partitioned. Every
/// partitioner reads its input through a run: the categorizer builds one
/// order per retained attribute per request and narrows it level by level
/// (`Distribute`), and the per-node functions below build a one-run order
/// over their `tuples`.
///
/// A numeric order holds the (value, row) pairs of the non-NULL, non-NaN
/// cells in ascending (value, row) order; a NaN cell joins no bucket, as
/// NULL does not (and as CategoryLabel::Matches answers). The value of an
/// int64 cell is `static_cast<double>` of it, so int64 cells that round
/// to one double (2^53 and 2^53 + 1, say) tie and are ordered by row; a
/// -0.0 cell ties with 0.0 the same way. A categorical order holds the
/// (key, row) pairs of the non-NULL, non-NaN cells in ascending (key,
/// row) order, so the rows of one value are contiguous within a run.
/// String columns key by dictionary code (the dictionary is sorted, so
/// code order is value order); int64 and double columns by the rank of
/// the cell under its own type's `<` (so int64 cells tie only when
/// equal). Cells are read from the view's columnar arrays (every view has
/// one; see `TableView`).
class AttributeOrder {
 public:
  /// Builds the `kind` order of view column `col` over `rows` (null =
  /// every view row) as a single run. `entry`, used only when `rows` is
  /// null, is the cold pipeline's attribute-index entry for the column
  /// over the same view: its sorted values are borrowed (they must
  /// outlive the order) and its sorted dictionary codes re-keyed, instead
  /// of sorting the column again. Errors when the view has 2^32 rows or
  /// more.
  static Result<AttributeOrder> Build(const TableView& view, size_t col,
                                      ColumnKind kind,
                                      const std::vector<size_t>* rows,
                                      const AttributeIndexEntry* entry);

  size_t num_runs() const { return offsets_.size() - 1; }

  /// Run `run` of a numeric order.
  std::span<const NumericOrderEntry> numeric_run(size_t run) const;
  /// Run `run` of a categorical order.
  std::span<const KeyOrderEntry> key_run(size_t run) const;
  /// Number of distinct keys of a categorical order.
  size_t num_keys() const { return key_values_.size(); }
  /// The value of categorical key `key`: the cell of the lowest row
  /// holding it (values of one key compare equal).
  const Value& key_value(uint32_t key) const { return key_values_[key]; }

  /// Redistributes the entries into `num_runs` runs: an entry whose row r
  /// has `slot_of_row[r] >= 0` moves to run `slot_of_row[r]`, the others
  /// are dropped. The pass is stable, so every new run whose rows came
  /// from one old run stays in key order. Reads `slot_of_row` only at the
  /// rows of current entries.
  void Distribute(const std::vector<int32_t>& slot_of_row, size_t num_runs);

 private:
  // Every numeric entry, all runs.
  std::span<const NumericOrderEntry> numeric_entries() const;

  bool numeric_ = false;
  // Numeric entries: the borrowed index entry until the first
  // Distribute, the owned buffer after it. Each Distribute writes a new
  // buffer no larger than the old one and frees the old one, so an order
  // holds one buffer between levels.
  std::span<const NumericOrderEntry> borrowed_;
  std::vector<NumericOrderEntry> numeric_entries_;
  std::vector<KeyOrderEntry> key_entries_;
  std::vector<Value> key_values_;
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
/// the greedy selection visits.
std::vector<NumericBucket> PlanNumericBuckets(
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    std::span<const NumericOrderEntry> run);

/// Section 6.1 equi-width buckets over one numeric run (see
/// `PartitionNumericEquiWidth`). `width` must be positive and finite.
std::vector<NumericBucket> EquiWidthBuckets(
    double width, const NumericRange* query_range,
    std::span<const NumericOrderEntry> run);

/// The partition the buckets describe: one category per bucket, its
/// tuples the bucket's rows in run order ((value, row) order).
std::vector<PartitionCategory> SliceBuckets(
    const std::string& attribute, const std::vector<NumericBucket>& buckets,
    std::span<const NumericOrderEntry> run);

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
/// tuples holding its value, in the parent's order. `run` is the node's
/// run of `order`, and `group_of_row` a scratch array with one slot per
/// view row.
std::vector<PartitionCategory> PartitionKeyGroups(
    const std::string& attribute, const AttributeOrder& order,
    std::span<const KeyOrderEntry> run, const std::vector<KeyGroup>& groups,
    const std::vector<size_t>& parent_tuples,
    std::vector<uint32_t>* group_of_row);

/// Per-node entry points: each builds a one-run order over `tuples`
/// (read through `view`, see `AttributeOrder`) and partitions it. The
/// categorizer does not call these; it partitions its narrowed runs
/// directly with the same functions, so both produce the identical
/// partition of a node.

/// Cost-based categorical partitioning (Section 5.1.2): one single-value
/// category per distinct value of `attribute` among `tuples`, presented in
/// decreasing occurrence count occ(v) (ties in value order). Tuples with a
/// NULL (or NaN) cell are not placed in any category.
Result<std::vector<PartitionCategory>> PartitionCategorical(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats);

/// Cost-based numeric partitioning (Section 5.1.3, see
/// `PlanNumericBuckets`), buckets in ascending value order. Empty buckets
/// are dropped. Tuples with a NULL or NaN cell are not placed in any
/// bucket.
Result<std::vector<PartitionCategory>> PartitionNumeric(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range);

/// Baseline categorical partitioning (Section 6.1, 'No cost'):
/// single-value categories in arbitrary order — value order, shuffled when
/// `rng` is provided.
Result<std::vector<PartitionCategory>> PartitionCategoricalArbitrary(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, Random* rng);

/// Baseline numeric partitioning (Section 6.1): equi-width buckets of the
/// given width aligned to multiples of the width, empty buckets removed.
/// NULL and NaN cells are not placed, as in `PartitionNumeric`. The width
/// must be positive and finite. A value range the width cannot cut (an
/// infinite cell, steps too small to advance near int64-extreme cells, or
/// more than 2^20 buckets) becomes one closed bucket holding every value.
Result<std::vector<PartitionCategory>> PartitionNumericEquiWidth(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, double width,
    const NumericRange* query_range);

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
