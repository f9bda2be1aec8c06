#include "core/categorizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"

namespace autocat {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

// What every technique's level loop reads. The partitioners read the
// result through `view` (dictionary codes / typed arrays when a columnar
// shadow is attached, cells otherwise); `index`, when non-null, supplies
// the level-1 orders. `baseline_rng`, when non-null, selects the baseline
// partitionings of Section 6.1 (arbitrary-order single-value categories
// shuffled with it, equi-width buckets); null selects the cost-based ones
// of Sections 5.1.2 / 5.1.3.
struct LevelContext {
  const TableView& view;
  const Table& result;
  const ResultAttributeIndex* index;
  const WorkloadStats& stats;
  const CategorizerOptions& options;
  const SelectionProfile* query;
  const CostModel& model;
  Random* baseline_rng;
};

// One candidate attribute of the level loop with its per-request key
// order, whose run s holds the rows of oversized category s.
struct LevelAttribute {
  std::string name;
  size_t col = 0;
  bool numeric = false;
  std::optional<AttributeOrder> order;
  // Cost-based categorical partitioning: occ(v) of every key of `order`,
  // and P(v) of its single-value label when candidates are scored.
  std::vector<size_t> occ_of_key;
  std::vector<double> prob_of_key;
};

// Builds `attr`'s order over the rows of the oversized categories `slots`
// (run s for slots[s]; `slot_of_row` maps their rows to their slots). At
// level 1 the only slot is the root, whose tset is every row, so the
// index entry is the order.
Status BuildOrder(const LevelContext& ctx, const CategoryTree& tree,
                  const std::vector<NodeId>& slots,
                  const std::vector<int32_t>& slot_of_row,
                  bool score_candidates, LevelAttribute* attr) {
  const ColumnKind kind =
      attr->numeric ? ColumnKind::kNumeric : ColumnKind::kCategorical;
  if (slots.size() == 1 && slots[0] == tree.root()) {
    const AttributeIndexEntry* entry =
        ctx.index == nullptr ? nullptr : ctx.index->entry(attr->col);
    AUTOCAT_ASSIGN_OR_RETURN(
        attr->order,
        AttributeOrder::Build(ctx.view, attr->col, kind, nullptr, entry));
  } else {
    std::vector<size_t> rows;
    for (const NodeId id : slots) {
      const std::vector<size_t>& tuples = tree.node(id).tuples;
      rows.insert(rows.end(), tuples.begin(), tuples.end());
    }
    AUTOCAT_ASSIGN_OR_RETURN(
        attr->order,
        AttributeOrder::Build(ctx.view, attr->col, kind, &rows, nullptr));
    attr->order->Distribute(slot_of_row, slots.size());
  }
  if (attr->numeric || ctx.baseline_rng != nullptr) {
    return Status::OK();
  }
  // occ(v) and P(v) once per distinct value per request, by the same
  // estimator calls a per-node partition would make.
  const AttributeOrder& order = *attr->order;
  attr->occ_of_key.resize(order.num_keys());
  if (score_candidates) {
    attr->prob_of_key.resize(order.num_keys());
  }
  for (uint32_t key = 0; key < order.num_keys(); ++key) {
    const Value& value = order.key_value(key);
    attr->occ_of_key[key] = ctx.stats.OccurrenceCount(attr->name, value);
    if (score_candidates) {
      attr->prob_of_key[key] = ctx.model.estimator().ExplorationProbability(
          CategoryLabel::Categorical(attr->name, {value}));
    }
  }
  return Status::OK();
}

// The partition of oversized category `slot` (tset `parent_tuples`) on
// `attr`, from its run. `group_of_row` is the categorical scratch.
Result<std::vector<PartitionCategory>> PartitionRun(
    const LevelContext& ctx, const LevelAttribute& attr, size_t slot,
    const std::vector<size_t>& parent_tuples,
    std::vector<uint32_t>* group_of_row) {
  const AttributeOrder& order = *attr.order;
  if (attr.numeric) {
    const std::span<const NumericOrderEntry> run = order.numeric_run(slot);
    const NumericRange* query_range = QueryRangeFor(ctx.query, attr.name);
    if (ctx.baseline_rng == nullptr) {
      return SliceBuckets(
          attr.name,
          PlanNumericBuckets(attr.name, ctx.stats,
                             NumericOptionsOf(ctx.options), query_range, run),
          run);
    }
    const double width = ctx.options.equiwidth_interval_multiplier *
                         ctx.stats.split_interval(attr.name);
    if (!(width > 0 && std::isfinite(width))) {
      return Status::InvalidArgument(
          "bucket width must be positive and finite");
    }
    return SliceBuckets(attr.name, EquiWidthBuckets(width, query_range, run),
                        run);
  }
  const std::span<const KeyOrderEntry> run = order.key_run(slot);
  std::vector<KeyGroup> groups = GroupKeys(run);
  if (ctx.baseline_rng == nullptr) {
    SortGroupsByOccurrence(attr.occ_of_key, &groups);
  }
  group_of_row->resize(ctx.view.num_rows());
  std::vector<PartitionCategory> parts = PartitionKeyGroups(
      attr.name, order, run, groups, parent_tuples, group_of_row);
  if (ctx.baseline_rng != nullptr) {
    ctx.baseline_rng->Shuffle(parts);
  }
  return parts;
}

// The 1-level CostAll of partitioning a category of `tset_size` tuples on
// `attr`, scored from its run `slot` without building the partition (the
// cost-based partitionings only): labels and tset sizes are all the cost
// model consumes.
double ScoreRun(const LevelContext& ctx, const LevelAttribute& attr,
                size_t slot, size_t tset_size, double pw) {
  const ProbabilityEstimator& estimator = ctx.model.estimator();
  std::vector<double> probs;
  std::vector<size_t> sizes;
  if (attr.numeric) {
    const std::vector<NumericBucket> buckets = PlanNumericBuckets(
        attr.name, ctx.stats, NumericOptionsOf(ctx.options),
        QueryRangeFor(ctx.query, attr.name), attr.order->numeric_run(slot));
    probs.reserve(buckets.size());
    sizes.reserve(buckets.size());
    for (const NumericBucket& bucket : buckets) {
      probs.push_back(estimator.IntervalExplorationProbability(
          attr.name, bucket.lo, bucket.hi));
      sizes.push_back(bucket.count);
    }
  } else {
    std::vector<KeyGroup> groups = GroupKeys(attr.order->key_run(slot));
    SortGroupsByOccurrence(attr.occ_of_key, &groups);
    probs.reserve(groups.size());
    sizes.reserve(groups.size());
    for (const KeyGroup& group : groups) {
      probs.push_back(attr.prob_of_key[group.key]);
      sizes.push_back(group.count);
    }
  }
  if (sizes.empty() || (sizes.size() == 1 && sizes[0] == tset_size)) {
    // No way to subcategorize on this attribute: the user must browse
    // the tuples.
    return static_cast<double>(tset_size);
  }
  return ctx.model.OneLevelCostAll(pw, tset_size, probs, sizes);
}

// The level-by-level construction shared by all four techniques
// (Figure 6). `cost_based_choice` selects the per-level attribute by
// minimum COST_A; otherwise candidates are consumed in the given
// (pre-shuffled for 'No cost') order.
//
// Every partitioning reads one per-request key order per candidate
// attribute (see AttributeOrder), whose run s holds the rows of the
// level's oversized category s. Each level costs one stable pass per
// order that narrows it to the rows still in oversized categories,
// instead of a sort or grouping per category and candidate.
//
// With the cost-based partitionings, candidates are scored from their
// runs (bucket and group counts, no tuple vectors or labels) and only the
// winner is partitioned. The baseline partitionings draw from a shared
// Random, so 'Attr-cost' scores every candidate from its full partition,
// in candidate order, keeping the winner's: the random stream, hence the
// tree, is that of a per-category construction.
//
// `parallel`, when non-null, spreads the per-level candidate scoring over
// threads (cost-based partitionings only). Each candidate's score is
// computed by exactly the same sequence of operations as the sequential
// loop, and the reduction takes the strict minimum in candidate order
// (earliest wins on ties), so the chosen attribute — hence the whole
// tree — is identical at any thread count.
Result<CategoryTree> BuildLevelByLevel(const LevelContext& ctx,
                                       const std::vector<std::string>& names,
                                       bool cost_based_choice,
                                       const ParallelOptions* parallel,
                                       CategorizeTimings* timings) {
  // The phases partition the construction's wall time: each lap charges
  // the time since the previous one.
  CategorizeTimings spent;
  double mark = NowMs();
  const auto lap = [&mark](double* phase_ms) {
    const double now = NowMs();
    *phase_ms += now - mark;
    mark = now;
  };

  const Schema& schema = ctx.view.schema();
  std::vector<LevelAttribute> attrs;
  attrs.reserve(names.size());
  for (const std::string& name : names) {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t col, schema.ColumnIndex(name));
    LevelAttribute attr;
    attr.name = name;
    attr.col = col;
    attr.numeric = schema.column(col).kind == ColumnKind::kNumeric;
    attrs.push_back(std::move(attr));
  }
  CategoryTree tree(&ctx.result);
  const CostModel& model = ctx.model;
  const ProbabilityEstimator& estimator = model.estimator();
  const size_t max_tuples = ctx.options.max_tuples_per_category;
  const size_t max_levels = ctx.options.max_levels;
  const bool two_phase = ctx.baseline_rng == nullptr;

  // The categories the orders' runs are for, and the run of each row
  // (-1: none). Level 1 has one: the root, holding every row.
  std::vector<NodeId> slots = {tree.root()};
  std::vector<int32_t> slot_of_row(ctx.result.num_rows(), 0);
  std::vector<uint32_t> group_of_row;

  int level = 1;
  while (max_levels == 0 || static_cast<size_t>(level) <= max_levels) {
    if (attrs.empty()) {
      break;
    }
    // S: categories at the previous level with more than M tuples.
    std::vector<NodeId> oversized;
    for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
      const CategoryNode& node = tree.node(id);
      if (node.level == level - 1 && node.tset_size() > max_tuples) {
        oversized.push_back(id);
      }
    }
    if (oversized.empty()) {
      break;
    }

    if (oversized != slots) {
      // A new level: narrow every order to the rows still oversized.
      for (const NodeId id : slots) {
        for (const size_t t : tree.node(id).tuples) {
          slot_of_row[t] = -1;
        }
      }
      for (size_t s = 0; s < oversized.size(); ++s) {
        for (const size_t t : tree.node(oversized[s]).tuples) {
          slot_of_row[t] = static_cast<int32_t>(s);
        }
      }
      for (LevelAttribute& attr : attrs) {
        if (attr.order.has_value()) {
          attr.order->Distribute(slot_of_row, oversized.size());
        }
      }
      slots = std::move(oversized);
    }
    // The orders this level reads that do not exist yet: every candidate
    // when choosing by cost, else the next attribute in order.
    for (size_t i = 0; i < (cost_based_choice ? attrs.size() : 1); ++i) {
      if (!attrs[i].order.has_value()) {
        AUTOCAT_RETURN_IF_ERROR(BuildOrder(ctx, tree, slots, slot_of_row,
                                           cost_based_choice, &attrs[i]));
      }
    }
    lap(&spent.orders_ms);

    // Choose the categorizing attribute for this level and compute the
    // partitionings of every oversized category with it.
    size_t chosen = 0;
    std::vector<std::vector<PartitionCategory>> chosen_parts;
    if (cost_based_choice) {
      // P(C) of each oversized category, shared by every candidate.
      std::vector<double> slot_probs;
      slot_probs.reserve(slots.size());
      for (const NodeId id : slots) {
        slot_probs.push_back(model.NodeExplorationProbability(tree, id));
      }
      // One score per candidate, computed independently (possibly on
      // different threads) and reduced below in candidate order.
      struct CandidateScore {
        double total = 0;
        std::vector<std::vector<PartitionCategory>> parts;
      };
      const auto evaluate = [&](size_t i, CandidateScore* score) -> Status {
        const LevelAttribute& attr = attrs[i];
        const double pw = estimator.ShowTuplesProbability(attr.name);
        for (size_t s = 0; s < slots.size(); ++s) {
          const CategoryNode& node = tree.node(slots[s]);
          double cost_one_level;
          if (two_phase) {
            cost_one_level = ScoreRun(ctx, attr, s, node.tset_size(), pw);
          } else {
            AUTOCAT_ASSIGN_OR_RETURN(
                auto parts,
                PartitionRun(ctx, attr, s, node.tuples, &group_of_row));
            // A "partition" with a single category equal to its parent
            // reduces nothing: for attribute *scoring* it must cost what
            // browsing the tuples costs (otherwise a useless attribute
            // looks cheap), but it is still attached — Figure 6 never
            // revisits a level, so severing the lineage would strand the
            // node above M forever while later attributes could still
            // split it.
            if (parts.empty() ||
                (parts.size() == 1 &&
                 parts[0].tuples.size() == node.tset_size())) {
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
            score->parts.push_back(std::move(parts));
          }
          score->total += slot_probs[s] * cost_one_level;
        }
        return Status::OK();
      };

      std::vector<CandidateScore> scores(attrs.size());
      if (two_phase && parallel != nullptr &&
          parallel->ResolvedThreads() > 1 && attrs.size() > 1) {
        AUTOCAT_RETURN_IF_ERROR(ParallelFor(
            *parallel, 0, attrs.size(), /*grain=*/1,
            [&](size_t lo, size_t hi) -> Status {
              for (size_t i = lo; i < hi; ++i) {
                AUTOCAT_RETURN_IF_ERROR(evaluate(i, &scores[i]));
              }
              return Status::OK();
            }));
      } else {
        for (size_t i = 0; i < attrs.size(); ++i) {
          AUTOCAT_RETURN_IF_ERROR(evaluate(i, &scores[i]));
        }
      }

      // Strict minimum in candidate order: identical to the sequential
      // "total < best_cost" scan, regardless of evaluation order above.
      double best_cost = std::numeric_limits<double>::infinity();
      chosen = attrs.size();
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (scores[i].total < best_cost) {
          best_cost = scores[i].total;
          chosen = i;
        }
      }
      AUTOCAT_CHECK_LT(chosen, attrs.size());
      if (!two_phase) {
        chosen_parts = std::move(scores[chosen].parts);
      }
      lap(&spent.score_ms);
    }
    if (chosen_parts.empty()) {
      // Partition only the chosen attribute's runs.
      chosen_parts.reserve(slots.size());
      for (size_t s = 0; s < slots.size(); ++s) {
        AUTOCAT_ASSIGN_OR_RETURN(
            auto parts, PartitionRun(ctx, attrs[chosen], s,
                                     tree.node(slots[s]).tuples,
                                     &group_of_row));
        chosen_parts.push_back(std::move(parts));
      }
    }

    // Attach the chosen partitionings and consume the attribute.
    bool attached = false;
    for (size_t s = 0; s < slots.size(); ++s) {
      for (PartitionCategory& part : chosen_parts[s]) {
        tree.AddChild(slots[s], std::move(part.label),
                      std::move(part.tuples));
        attached = true;
      }
    }
    if (attached) {
      tree.AppendLevelAttribute(attrs[chosen].name);
      ++level;
    }
    attrs.erase(attrs.begin() + static_cast<std::ptrdiff_t>(chosen));
    lap(&spent.attach_ms);
    // When nothing was attached (e.g. the attribute was all NULL in every
    // oversized category), retry the same level with the remaining
    // candidates.
  }
  AUTOCAT_DCHECK(tree.Validate().ok());
  // Free the orders and scratch arrays inside the last phase, so the
  // phases cover the construction's whole wall time.
  attrs.clear();
  std::vector<int32_t>().swap(slot_of_row);
  std::vector<uint32_t>().swap(group_of_row);
  lap(&spent.attach_ms);
  if (timings != nullptr) {
    *timings = spent;
  }
  return tree;
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
    const ResultAttributeIndex* index, CategorizeTimings* timings) const {
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
  const LevelContext ctx{view,     result, index, *stats_, options_,
                         query,    model,  /*baseline_rng=*/nullptr};
  return BuildLevelByLevel(ctx, RetainedAttributes(result.schema()),
                           /*cost_based_choice=*/true, &options_.parallel,
                           timings);
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
  const TableView view = TableView::All(result, nullptr);
  const LevelContext ctx{view,  result, /*index=*/nullptr, *stats_, options_,
                         query, model,  &rng};
  return BuildLevelByLevel(ctx, candidates, /*cost_based_choice=*/true,
                           /*parallel=*/nullptr, /*timings=*/nullptr);
}

Result<CategoryTree> CategorizeWithFixedAttributeOrder(
    const Table& result, const std::vector<std::string>& attribute_order,
    const WorkloadStats* stats, const CategorizerOptions& options,
    const SelectionProfile* query) {
  ProbabilityEstimator estimator(stats, &result.schema());
  CostModel model(&estimator, options.cost_params);
  const TableView view = TableView::All(result, nullptr);
  const LevelContext ctx{view,  result, /*index=*/nullptr, *stats, options,
                         query, model,  /*baseline_rng=*/nullptr};
  return BuildLevelByLevel(ctx, attribute_order, /*cost_based_choice=*/false,
                           /*parallel=*/nullptr, /*timings=*/nullptr);
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
  const LevelContext ctx{view,  result, /*index=*/nullptr, *stats_, options_,
                         query, model,  &rng};
  return BuildLevelByLevel(ctx, candidates, /*cost_based_choice=*/false,
                           /*parallel=*/nullptr, /*timings=*/nullptr);
}

}  // namespace autocat
