#include "core/categorizer.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"

namespace autocat {

namespace {

using PartitionFn = std::function<Result<std::vector<PartitionCategory>>(
    const std::vector<size_t>& tuples, const std::string& attribute)>;

// Summary twin of PartitionFn: the partition's labels and tset sizes
// without the tuple vectors (see PartitionSummary). The cost-based
// technique always scores from summaries; an empty function (the
// 'Attr-cost' baseline) scores single-phase.
using SummarizeFn = std::function<Result<std::vector<PartitionSummary>>(
    const std::vector<size_t>& tuples, const std::string& attribute)>;

// Returns the query's numeric range condition on `attribute`, or nullptr.
const NumericRange* QueryRangeFor(const SelectionProfile* query,
                                  const std::string& attribute) {
  if (query == nullptr) {
    return nullptr;
  }
  const AttributeCondition* cond = query->Find(attribute);
  if (cond == nullptr || !cond->is_range()) {
    return nullptr;
  }
  return &cond->range;
}

// Default candidate set: every column of the result schema.
std::vector<std::string> DefaultCandidates(const Schema& schema) {
  std::vector<std::string> out;
  out.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out.push_back(schema.column(c).name);
  }
  return out;
}

Status ValidateCandidates(const std::vector<std::string>& candidates,
                          const Schema& schema) {
  for (const std::string& attr : candidates) {
    AUTOCAT_RETURN_IF_ERROR(schema.ColumnIndex(attr).status());
  }
  return Status::OK();
}

// The level-by-level construction shared by all three techniques
// (Figure 6). `cost_based_choice` selects the per-level attribute by
// minimum COST_A; otherwise candidates are consumed in the given
// (pre-shuffled for 'No cost') order.
//
// `parallel`, when non-null, spreads the per-level candidate scoring over
// threads — requires `partition` to be thread-safe (the cost-based
// dispatch is; the baseline one mutates a shared Random, so the baselines
// pass null). Each candidate's score is computed by exactly the same
// sequence of operations as the sequential loop, and the reduction takes
// the strict minimum in candidate order (earliest wins on ties), so the
// chosen attribute — hence the whole tree — is identical at any thread
// count.
//
// `summarize`, when non-empty (cost-based choice only), switches scoring
// to two phases: candidates are scored from partition *summaries* (labels
// and tset sizes — all the cost model consumes) and only the winner is
// re-partitioned with tuple vectors via `partition`. `partition` must be
// a pure function of (tuples, attribute) and `summarize` must mirror it
// exactly, so the winner and the attached partition are identical to the
// single-phase construction.
Result<CategoryTree> BuildLevelByLevel(
    const Table& result, std::vector<std::string> candidates,
    const CostModel& model, bool cost_based_choice,
    const PartitionFn& partition, const SummarizeFn& summarize,
    size_t max_tuples_per_category, size_t max_levels,
    const ParallelOptions* parallel) {
  AUTOCAT_RETURN_IF_ERROR(ValidateCandidates(candidates, result.schema()));
  CategoryTree tree(&result);
  const ProbabilityEstimator& estimator = model.estimator();

  int level = 1;
  while (max_levels == 0 || static_cast<size_t>(level) <= max_levels) {
    if (candidates.empty()) {
      break;
    }
    // S: categories at the previous level with more than M tuples.
    std::vector<NodeId> oversized;
    for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
      const CategoryNode& node = tree.node(id);
      if (node.level == level - 1 &&
          node.tset_size() > max_tuples_per_category) {
        oversized.push_back(id);
      }
    }
    if (oversized.empty()) {
      break;
    }

    // Choose the categorizing attribute for this level and compute the
    // partitionings of every oversized category with it.
    std::string chosen_attr;
    std::vector<std::vector<PartitionCategory>> chosen_parts;
    // A "partition" with a single category equal to its parent reduces
    // nothing: for attribute *scoring* it must cost what browsing the
    // tuples costs (otherwise a useless attribute looks cheap), but it is
    // still attached — Figure 6 never revisits a level, so severing the
    // lineage would strand the node above M forever while later
    // attributes could still split it.
    const auto is_degenerate =
        [](const std::vector<PartitionCategory>& parts,
           size_t parent_size) {
          return parts.size() == 1 && parts[0].tuples.size() == parent_size;
        };
    if (!cost_based_choice) {
      chosen_attr = candidates.front();
      chosen_parts.reserve(oversized.size());
      for (NodeId id : oversized) {
        AUTOCAT_ASSIGN_OR_RETURN(
            auto parts, partition(tree.node(id).tuples, chosen_attr));
        chosen_parts.push_back(std::move(parts));
      }
    } else {
      // One score per candidate, computed independently (possibly on
      // different threads) and reduced below in candidate order.
      struct CandidateScore {
        double total = 0;
        std::vector<std::vector<PartitionCategory>> parts;
      };
      const bool two_phase = static_cast<bool>(summarize);
      const auto evaluate = [&](const std::string& attr,
                                CandidateScore* score) -> Status {
        const double pw = estimator.ShowTuplesProbability(attr);
        if (two_phase) {
          // Score from summaries only; no tuple vectors are built for
          // losing candidates.
          for (NodeId id : oversized) {
            const CategoryNode& node = tree.node(id);
            AUTOCAT_ASSIGN_OR_RETURN(const auto summaries,
                                     summarize(node.tuples, attr));
            double cost_one_level;
            if (summaries.empty() ||
                (summaries.size() == 1 &&
                 summaries[0].size == node.tset_size())) {
              cost_one_level = static_cast<double>(node.tset_size());
            } else {
              std::vector<double> probs;
              std::vector<size_t> sizes;
              probs.reserve(summaries.size());
              sizes.reserve(summaries.size());
              for (const PartitionSummary& summary : summaries) {
                probs.push_back(
                    estimator.ExplorationProbability(summary.label));
                sizes.push_back(summary.size);
              }
              cost_one_level =
                  model.OneLevelCostAll(pw, node.tset_size(), probs, sizes);
            }
            score->total += model.NodeExplorationProbability(tree, id) *
                            cost_one_level;
          }
          return Status::OK();
        }
        score->parts.reserve(oversized.size());
        for (NodeId id : oversized) {
          const CategoryNode& node = tree.node(id);
          AUTOCAT_ASSIGN_OR_RETURN(auto parts,
                                   partition(node.tuples, attr));
          double cost_one_level;
          if (parts.empty() || is_degenerate(parts, node.tset_size())) {
            // No way to subcategorize on this attribute: the user must
            // browse the tuples.
            cost_one_level = static_cast<double>(node.tset_size());
          } else {
            std::vector<double> probs;
            std::vector<size_t> sizes;
            probs.reserve(parts.size());
            sizes.reserve(parts.size());
            for (const PartitionCategory& part : parts) {
              probs.push_back(
                  estimator.ExplorationProbability(part.label));
              sizes.push_back(part.tuples.size());
            }
            cost_one_level =
                model.OneLevelCostAll(pw, node.tset_size(), probs, sizes);
          }
          score->total += model.NodeExplorationProbability(tree, id) *
                          cost_one_level;
          score->parts.push_back(std::move(parts));
        }
        return Status::OK();
      };

      std::vector<CandidateScore> scores(candidates.size());
      if (parallel != nullptr && parallel->ResolvedThreads() > 1 &&
          candidates.size() > 1) {
        AUTOCAT_RETURN_IF_ERROR(ParallelFor(
            *parallel, 0, candidates.size(), /*grain=*/1,
            [&](size_t lo, size_t hi) -> Status {
              for (size_t i = lo; i < hi; ++i) {
                AUTOCAT_RETURN_IF_ERROR(
                    evaluate(candidates[i], &scores[i]));
              }
              return Status::OK();
            }));
      } else {
        for (size_t i = 0; i < candidates.size(); ++i) {
          AUTOCAT_RETURN_IF_ERROR(evaluate(candidates[i], &scores[i]));
        }
      }

      // Strict minimum in candidate order: identical to the sequential
      // "total < best_cost" scan, regardless of evaluation order above.
      double best_cost = std::numeric_limits<double>::infinity();
      size_t best_i = candidates.size();
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (scores[i].total < best_cost) {
          best_cost = scores[i].total;
          best_i = i;
        }
      }
      if (best_i < candidates.size()) {
        chosen_attr = candidates[best_i];
        if (two_phase) {
          // Materialize only the winner; `partition` is pure, so this is
          // the partition the single-phase scan would have kept.
          chosen_parts.reserve(oversized.size());
          for (NodeId id : oversized) {
            AUTOCAT_ASSIGN_OR_RETURN(
                auto parts, partition(tree.node(id).tuples, chosen_attr));
            chosen_parts.push_back(std::move(parts));
          }
        } else {
          chosen_parts = std::move(scores[best_i].parts);
        }
      }
    }
    AUTOCAT_CHECK(!chosen_attr.empty());

    // Attach the chosen partitionings and consume the attribute.
    bool attached = false;
    for (size_t i = 0; i < oversized.size(); ++i) {
      for (PartitionCategory& part : chosen_parts[i]) {
        tree.AddChild(oversized[i], std::move(part.label),
                      std::move(part.tuples));
        attached = true;
      }
    }
    candidates.erase(
        std::find(candidates.begin(), candidates.end(), chosen_attr));
    if (attached) {
      tree.AppendLevelAttribute(chosen_attr);
      ++level;
    }
    // When nothing was attached (e.g. the attribute was all NULL in every
    // oversized category), retry the same level with the remaining
    // candidates.
  }
  AUTOCAT_DCHECK(tree.Validate().ok());
  return tree;
}

// The cost-based numeric partitioning knobs from the categorizer options.
NumericPartitionOptions NumericOptionsOf(const CategorizerOptions& options) {
  NumericPartitionOptions numeric_options;
  numeric_options.num_buckets = options.num_buckets;
  numeric_options.max_tuples_per_category = options.max_tuples_per_category;
  numeric_options.max_buckets = options.max_buckets;
  numeric_options.min_bucket_tuples = options.min_bucket_tuples;
  numeric_options.auto_buckets = options.auto_numeric_buckets;
  numeric_options.goodness_fraction = options.goodness_fraction;
  return numeric_options;
}

// Cost-based partitioning dispatch (Sections 5.1.2 / 5.1.3): the
// partitioners read through `view` (dictionary codes / typed arrays when a
// columnar shadow is attached, cells otherwise). `index`, when non-null,
// is the cold pipeline's precomputed ResultAttributeIndex; the
// partitioners reuse its root-level sorted values / groups.
PartitionFn MakeCostBasedPartition(const TableView& view,
                                   const WorkloadStats* stats,
                                   const CategorizerOptions& options,
                                   const SelectionProfile* query,
                                   const ResultAttributeIndex* index =
                                       nullptr) {
  return [&view, stats, &options, query, index](
             const std::vector<size_t>& tuples,
             const std::string& attribute)
             -> Result<std::vector<PartitionCategory>> {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                             view.schema().ColumnIndex(attribute));
    if (view.schema().column(col).kind == ColumnKind::kCategorical) {
      return PartitionCategorical(view, tuples, attribute, *stats, index);
    }
    return PartitionNumeric(view, tuples, attribute, *stats,
                            NumericOptionsOf(options),
                            QueryRangeFor(query, attribute), index);
  };
}

// Summary twin of the dispatch above, for two-phase scoring. Must take
// the same branches so the summaries mirror the partitions exactly.
SummarizeFn MakeCostBasedSummarize(const TableView& view,
                                   const WorkloadStats* stats,
                                   const CategorizerOptions& options,
                                   const SelectionProfile* query,
                                   const ResultAttributeIndex* index) {
  return [&view, stats, &options, query, index](
             const std::vector<size_t>& tuples,
             const std::string& attribute)
             -> Result<std::vector<PartitionSummary>> {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                             view.schema().ColumnIndex(attribute));
    if (view.schema().column(col).kind == ColumnKind::kCategorical) {
      return SummarizePartitionCategorical(view, tuples, attribute, *stats,
                                           index);
    }
    return SummarizePartitionNumeric(view, tuples, attribute, *stats,
                                     NumericOptionsOf(options),
                                     QueryRangeFor(query, attribute), index);
  };
}

// Baseline partitioning dispatch (Section 6.1): arbitrary-order
// single-value categories and equi-width buckets.
PartitionFn MakeBaselinePartition(const TableView& view,
                                  const WorkloadStats* stats,
                                  const CategorizerOptions& options,
                                  const SelectionProfile* query,
                                  Random* rng) {
  return [&view, stats, &options, query, rng](
             const std::vector<size_t>& tuples,
             const std::string& attribute)
             -> Result<std::vector<PartitionCategory>> {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t col,
                             view.schema().ColumnIndex(attribute));
    if (view.schema().column(col).kind == ColumnKind::kCategorical) {
      return PartitionCategoricalArbitrary(view, tuples, attribute, rng);
    }
    const double width = options.equiwidth_interval_multiplier *
                         stats->split_interval(attribute);
    return PartitionNumericEquiWidth(view, tuples, attribute, width,
                                     QueryRangeFor(query, attribute));
  };
}

}  // namespace

std::vector<std::string> CostBasedCategorizer::RetainedAttributes(
    const Schema& schema) const {
  const std::vector<std::string> candidates =
      options_.candidate_attributes.empty()
          ? DefaultCandidates(schema)
          : options_.candidate_attributes;
  std::vector<std::string> retained;
  for (const std::string& attr : candidates) {
    if (stats_->AttrUsageFraction(attr) >=
        options_.attribute_usage_threshold) {
      retained.push_back(attr);
    }
  }
  return retained;
}

Result<CategoryTree> CostBasedCategorizer::Categorize(
    const Table& result, const SelectionProfile* query) const {
  return Categorize(TableView::All(result, nullptr), result, query);
}

Result<CategoryTree> CostBasedCategorizer::Categorize(
    const TableView& view, const Table& result, const SelectionProfile* query,
    const ResultAttributeIndex* index) const {
  // The tree's tuple indices are rows of `result`; the partitioners read
  // the same rows through `view`, so the two must describe one relation.
  if (view.num_rows() != result.num_rows() ||
      view.num_columns() != result.num_columns()) {
    return Status::InvalidArgument(
        "view shape does not match the result table");
  }
  for (size_t c = 0; c < result.num_columns(); ++c) {
    if (view.schema().column(c).name != result.schema().column(c).name ||
        view.schema().column(c).type != result.schema().column(c).type ||
        view.schema().column(c).kind != result.schema().column(c).kind) {
      return Status::InvalidArgument(
          "view schema does not match the result table");
    }
  }
  if (index != nullptr && index->num_rows != result.num_rows()) {
    return Status::InvalidArgument(
        "attribute index does not cover the result table");
  }
  ProbabilityEstimator estimator(stats_, &result.schema());
  CostModel model(&estimator, options_.cost_params);
  return BuildLevelByLevel(
      result, RetainedAttributes(result.schema()), model,
      /*cost_based_choice=*/true,
      MakeCostBasedPartition(view, stats_, options_, query, index),
      MakeCostBasedSummarize(view, stats_, options_, query, index),
      options_.max_tuples_per_category, options_.max_levels,
      &options_.parallel);
}

Result<CategoryTree> AttrCostCategorizer::Categorize(
    const Table& result, const SelectionProfile* query) const {
  ProbabilityEstimator estimator(stats_, &result.schema());
  CostModel model(&estimator, options_.cost_params);
  Random rng(options_.arbitrary_seed);
  const std::vector<std::string> candidates =
      options_.candidate_attributes.empty()
          ? DefaultCandidates(result.schema())
          : options_.candidate_attributes;
  // The baseline partitioner draws from a shared Random: keep scoring
  // sequential and single-phase so its stream (hence the tree) is
  // unchanged.
  const TableView view = TableView::All(result, nullptr);
  return BuildLevelByLevel(
      result, candidates, model,
      /*cost_based_choice=*/true,
      MakeBaselinePartition(view, stats_, options_, query, &rng),
      /*summarize=*/SummarizeFn(),
      options_.max_tuples_per_category, options_.max_levels,
      /*parallel=*/nullptr);
}

Result<CategoryTree> CategorizeWithFixedAttributeOrder(
    const Table& result, const std::vector<std::string>& attribute_order,
    const WorkloadStats* stats, const CategorizerOptions& options,
    const SelectionProfile* query) {
  ProbabilityEstimator estimator(stats, &result.schema());
  CostModel model(&estimator, options.cost_params);
  const TableView view = TableView::All(result, nullptr);
  return BuildLevelByLevel(
      result, attribute_order, model,
      /*cost_based_choice=*/false,
      MakeCostBasedPartition(view, stats, options, query),
      /*summarize=*/SummarizeFn(),
      options.max_tuples_per_category, options.max_levels,
      /*parallel=*/nullptr);
}

Result<CategoryTree> NoCostCategorizer::Categorize(
    const Table& result, const SelectionProfile* query) const {
  ProbabilityEstimator estimator(stats_, &result.schema());
  CostModel model(&estimator, options_.cost_params);
  Random rng(options_.arbitrary_seed);
  std::vector<std::string> candidates =
      options_.candidate_attributes.empty()
          ? DefaultCandidates(result.schema())
          : options_.candidate_attributes;
  rng.Shuffle(candidates);
  const TableView view = TableView::All(result, nullptr);
  return BuildLevelByLevel(
      result, std::move(candidates), model,
      /*cost_based_choice=*/false,
      MakeBaselinePartition(view, stats_, options_, query, &rng),
      /*summarize=*/SummarizeFn(),
      options_.max_tuples_per_category, options_.max_levels,
      /*parallel=*/nullptr);
}

}  // namespace autocat
