#ifndef AUTOCAT_CORE_CATEGORIZER_H_
#define AUTOCAT_CORE_CATEGORIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/category.h"
#include "core/cost_model.h"
#include "core/partition.h"
#include "sql/selection.h"
#include "workload/counts.h"

namespace autocat {

/// Options shared by the three categorization techniques of Section 6.1.
struct CategorizerOptions {
  /// M: a category with more than this many tuples gets partitioned
  /// further (when attributes remain). The paper uses 20.
  size_t max_tuples_per_category = 20;

  /// x: attribute-elimination threshold (Section 5.1.1, cost-based only).
  /// Attributes with NAttr(A)/N < x are discarded up front.
  double attribute_usage_threshold = 0.4;

  /// Bucket-count controls for cost-based numeric partitioning
  /// (Section 5.1.3, `PlanNumericBuckets`).
  /// Fixed bucket count m; 0 derives m = clamp(2*ceil(n / M), 2,
  /// max_buckets) from the tuple count n.
  size_t num_buckets = 0;
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
  bool auto_numeric_buckets = false;
  double goodness_fraction = 0.3;

  /// Baselines: equi-width bucket width = this multiplier times the
  /// attribute's split-point separation interval (the paper uses 5, e.g.
  /// price splits at multiples of 25000 with a 5000 interval).
  double equiwidth_interval_multiplier = 5.0;

  /// Cost-model constants (K, frac).
  CostModelParams cost_params;

  /// Candidate categorizing attributes. Empty means every column of the
  /// result schema. The baselines treat this as the paper's "predefined
  /// set"; the cost-based technique additionally applies the usage
  /// threshold.
  std::vector<std::string> candidate_attributes;

  /// Hard cap on tree depth; 0 means bounded only by the attribute count.
  size_t max_levels = 0;

  /// Seed for the 'No cost' technique's arbitrary choices (attribute order
  /// and category order).
  uint64_t arbitrary_seed = 42;

  /// Threads used by the cost-based technique to plan and score
  /// candidate attributes concurrently per level. Candidate costs are
  /// reduced in candidate order with a strict-minimum tie-break, so the
  /// chosen tree is bit-identical at any thread count; `threads = 1` runs
  /// the sequential loop. The baselines ignore this: their plans draw
  /// from one shared Random, in candidate order.
  ParallelOptions parallel;
};

/// Wall time of the columnar cost-based construction's three phases,
/// summed over its levels (milliseconds). Together they cover the whole
/// level-by-level construction, set-up and the final checks included.
struct CategorizeTimings {
  /// Finding each level's oversized categories, and building the
  /// per-attribute key orders and narrowing them to those categories.
  double orders_ms = 0;
  /// Planning every oversized category's run with each candidate,
  /// costing the plans, and the reduce.
  double score_ms = 0;
  /// Slicing the winner's kept plans into categories and attaching them.
  double attach_ms = 0;
};

/// Common interface of the categorization techniques. `Categorize` builds
/// a category tree over `result`; `query`, when non-null, is the user
/// query that produced `result` (its numeric selection bounds supply
/// vmin/vmax for range partitioning). The returned tree references
/// `result`, which must outlive it.
class Categorizer {
 public:
  virtual ~Categorizer() = default;

  virtual Result<CategoryTree> Categorize(
      const Table& result, const SelectionProfile* query) const = 0;

  /// Display name ("Cost-based", "Attr-cost", "No cost").
  virtual std::string name() const = 0;
};

/// The paper's contribution (Figure 6): level-by-level construction where
/// each level's categorizing attribute is the cost-optimal choice
/// (COST_A = sum over oversized categories C of P(C) * CostAll(Tree(C,A)))
/// and partitionings are the cost-based ones of Sections 5.1.2/5.1.3.
class CostBasedCategorizer final : public Categorizer {
 public:
  /// `stats` is not owned and must outlive the categorizer.
  CostBasedCategorizer(const WorkloadStats* stats,
                       CategorizerOptions options)
      : stats_(stats), options_(std::move(options)) {}

  Result<CategoryTree> Categorize(
      const Table& result, const SelectionProfile* query) const override;

  /// The construction for the serving path, with the partitioners
  /// reading dictionary codes / typed arrays through `result`'s backing
  /// (a builder `result` is read through a column-backed copy built once
  /// per call). `index`, when non-null, is a precomputed
  /// `ResultAttributeIndex` over `result` (built by `RunColdPipeline`):
  /// its entries are the level-1 key orders of their attributes, taken
  /// instead of sorting the columns, producing the identical tree.
  /// `timings`, when non-null, receives the wall time of the
  /// construction's phases. Errors InvalidArgument when `index` does not
  /// cover `result`'s rows.
  Result<CategoryTree> Categorize(const Table& result,
                                  const SelectionProfile* query,
                                  const ResultAttributeIndex* index,
                                  CategorizeTimings* timings) const;

  /// The one-table `Categorize` after checking that `view` is `result`'s
  /// relation: both column-backed over the same backing with the same
  /// schema, selection and projection (InvalidArgument otherwise).
  /// Mirror only; delete with the mirror.
  Result<CategoryTree> Categorize(const Table& view, const Table& result,
                                  const SelectionProfile* query,
                                  const ResultAttributeIndex* index,
                                  CategorizeTimings* timings = nullptr) const;

  std::string name() const override { return "Cost-based"; }

  /// The candidate attributes surviving elimination for `schema`
  /// (Section 5.1.1). Exposed for tests and diagnostics.
  std::vector<std::string> RetainedAttributes(const Schema& schema) const;

  const CategorizerOptions& options() const { return options_; }

 private:
  const WorkloadStats* stats_;
  CategorizerOptions options_;
};

/// Baseline 'Attr-cost' (Section 6.1): cost-based attribute selection per
/// level, but only the baseline partitionings (arbitrary-order
/// single-value categories; equi-width buckets).
class AttrCostCategorizer final : public Categorizer {
 public:
  AttrCostCategorizer(const WorkloadStats* stats, CategorizerOptions options)
      : stats_(stats), options_(std::move(options)) {}

  Result<CategoryTree> Categorize(
      const Table& result, const SelectionProfile* query) const override;
  std::string name() const override { return "Attr-cost"; }

 private:
  const WorkloadStats* stats_;
  CategorizerOptions options_;
};

/// Baseline 'No cost' (Section 6.1): arbitrary attribute order (a seeded
/// shuffle of the predefined set) and baseline partitionings. The
/// `WorkloadStats` is used only for the equi-width bucket width (interval
/// multiplier), not for any cost decision.
class NoCostCategorizer final : public Categorizer {
 public:
  NoCostCategorizer(const WorkloadStats* stats, CategorizerOptions options)
      : stats_(stats), options_(std::move(options)) {}

  Result<CategoryTree> Categorize(
      const Table& result, const SelectionProfile* query) const override;
  std::string name() const override { return "No cost"; }

 private:
  const WorkloadStats* stats_;
  CategorizerOptions options_;
};

/// Builds a tree with the cost-based partitionings of Sections 5.1.2/5.1.3
/// but a fixed, caller-specified per-level attribute order (level 1 uses
/// `attribute_order[0]`, and so on). Used by the enumerative optimizer and
/// ablations to isolate the effect of attribute selection.
Result<CategoryTree> CategorizeWithFixedAttributeOrder(
    const Table& result, const std::vector<std::string>& attribute_order,
    const WorkloadStats* stats, const CategorizerOptions& options,
    const SelectionProfile* query);

}  // namespace autocat

#endif  // AUTOCAT_CORE_CATEGORIZER_H_
