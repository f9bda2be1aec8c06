#ifndef AUTOCAT_CORE_PARTITION_H_
#define AUTOCAT_CORE_PARTITION_H_

#include <string>
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

/// A partition category without its tuple list: the label plus the tset
/// size. This is everything the cost model consumes, so candidate
/// attributes can be *scored* from summaries (see the Summarize*
/// functions) and only the winning attribute's partition materialized.
struct PartitionSummary {
  CategoryLabel label;
  size_t size = 0;
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

/// Every partitioner reads its input relation through a `TableView`;
/// `tuples` index view rows (== rows of the materialized result, which
/// the category tree references). The columns of an attached columnar
/// shadow are read through their dictionary codes / typed arrays (the
/// dictionary is sorted, so code order is value order); a view of a
/// column-backed table always has one (its backing). A view of a
/// row-store table without a shadow — `TableView::All(table, nullptr)`
/// for an owned table — walks the cells as `Value`s. Both walks produce
/// the identical partition.
///
/// The four cost-based entry points accept an optional
/// `ResultAttributeIndex` built over the same result relation (by
/// `RunColdPipeline`). When `tuples` is the identity
/// set over the indexed rows — the tree root's tset — the precomputed
/// sorted values / value groups are reused instead of rescanning and
/// re-sorting the column; the index holds exactly the shapes these
/// functions would build, so the output is bit-identical. Any other
/// tuple set (or a null/absent entry) falls back to the scan.

/// Cost-based categorical partitioning (Section 5.1.2): one single-value
/// category per distinct value of `attribute` among `tuples`, presented in
/// decreasing occurrence count occ(v) (ties in value order). Tuples with a
/// NULL cell are not placed in any category.
Result<std::vector<PartitionCategory>> PartitionCategorical(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const ResultAttributeIndex* index = nullptr);

/// Cost-based numeric partitioning (Section 5.1.3): picks the top
/// necessary split points by goodness score SUM(start_v, end_v) from the
/// workload's SplitPoints store, producing buckets in ascending value
/// order. `query_range`, when non-null, supplies vmin/vmax from the user
/// query's selection condition; otherwise the tuple values define the
/// range. Empty buckets are dropped. Tuples with a NULL or NaN cell are
/// not placed in any bucket.
Result<std::vector<PartitionCategory>> PartitionNumeric(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    const ResultAttributeIndex* index = nullptr);

/// Summary flavor of `PartitionCategorical`: the labels and tset sizes of
/// exactly the partition the full function returns (same presentation
/// order, NULL cells dropped), computed without building any per-category
/// tuple vector. Two-phase candidate scoring runs on these.
Result<std::vector<PartitionSummary>> SummarizePartitionCategorical(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const ResultAttributeIndex* index = nullptr);

/// Summary flavor of `PartitionNumeric`: identical split-point selection
/// and bucket boundaries (empties dropped the same way), with per-bucket
/// counts taken by the same binary searches that would slice the tuples.
Result<std::vector<PartitionSummary>> SummarizePartitionNumeric(
    const TableView& view, const std::vector<size_t>& tuples,
    const std::string& attribute, const WorkloadStats& stats,
    const NumericPartitionOptions& options, const NumericRange* query_range,
    const ResultAttributeIndex* index = nullptr);

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
