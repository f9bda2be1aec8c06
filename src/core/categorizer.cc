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

// The candidate attributes of `options` over `schema`: the predefined
// set, or every column of the schema when it is empty.
std::vector<std::string> CandidatesOf(const CategorizerOptions& options,
                                      const Schema& schema) {
  if (!options.candidate_attributes.empty()) {
    return options.candidate_attributes;
  }
  std::vector<std::string> out;
  out.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out.push_back(schema.column(c).name);
  }
  return out;
}

// What every technique's level loop reads. The partitioners read
// `table`, the column-backed result (the codes and typed arrays of its
// backing); `index`, when non-null, supplies the level-1 orders.
// `baseline_rng`, when non-null, selects the baseline partitionings of
// Section 6.1 (arbitrary-order single-value categories shuffled with it,
// equi-width buckets); null selects the cost-based ones of Sections
// 5.1.2 / 5.1.3.
struct LevelContext {
  const Table& table;
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
  // Categorical attributes: P(v) of every key's single-value label when
  // candidates are scored, and occ(v) of every key for the cost-based
  // presentation order.
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
  if (slots.size() == 1 && slots[0] == tree.root()) {
    const AttributeIndexEntry* entry =
        ctx.index == nullptr ? nullptr : ctx.index->entry(attr->col);
    AUTOCAT_ASSIGN_OR_RETURN(
        attr->order,
        AttributeOrder::Build(ctx.table, attr->col, nullptr, entry));
  } else {
    std::vector<size_t> rows;
    for (const NodeId id : slots) {
      const std::vector<size_t>& tuples = tree.node(id).tuples;
      rows.insert(rows.end(), tuples.begin(), tuples.end());
    }
    AUTOCAT_ASSIGN_OR_RETURN(
        attr->order,
        AttributeOrder::Build(ctx.table, attr->col, &rows, nullptr));
    attr->order->Distribute(slot_of_row, slots.size());
  }
  if (attr->numeric) {
    return Status::OK();
  }
  // occ(v) and P(v) once per distinct value per request, by the same
  // estimator calls a per-node partition would make.
  const bool cost_based = ctx.baseline_rng == nullptr;
  const AttributeOrder& order = *attr->order;
  for (uint32_t key = 0; key < order.num_keys(); ++key) {
    const Value& value = order.key_value(key);
    if (cost_based) {
      attr->occ_of_key.push_back(ctx.stats.OccurrenceCount(attr->name, value));
    }
    if (score_candidates) {
      attr->prob_of_key.push_back(ctx.model.estimator().ExplorationProbability(
          CategoryLabel::Categorical(attr->name, {value})));
    }
  }
  return Status::OK();
}

// What one candidate cuts one oversized category's run into, in
// presentation order: buckets when the attribute is numeric, key groups
// otherwise.
struct RunPlan {
  std::vector<NumericBucket> buckets;
  std::vector<KeyGroup> groups;
};

// The plan of `attr` for oversized category `slot`, from its run. The
// cost-based partitionings cut Section 5.1.3 buckets or order the groups
// by decreasing occ(v); the baselines cut equi-width buckets or shuffle
// the groups with `ctx.baseline_rng`. A shuffle's draws depend only on
// the length, so shuffling the groups draws, and permutes, exactly as
// shuffling the categories they become would.
Result<RunPlan> PlanRun(const LevelContext& ctx, const LevelAttribute& attr,
                        size_t slot) {
  const AttributeOrder& order = *attr.order;
  RunPlan plan;
  if (attr.numeric) {
    const std::span<const KeyOrderEntry> run = order.run(slot);
    const NumericRange* query_range = QueryRangeFor(ctx.query, attr.name);
    if (ctx.baseline_rng == nullptr) {
      plan.buckets = PlanNumericBuckets(attr.name, ctx.stats, ctx.options,
                                        query_range, order, run);
      return plan;
    }
    const double width = ctx.options.equiwidth_interval_multiplier *
                         ctx.stats.split_interval(attr.name);
    if (!(width > 0 && std::isfinite(width))) {
      return Status::InvalidArgument(
          "bucket width must be positive and finite");
    }
    plan.buckets = EquiWidthBuckets(width, query_range, order, run);
    return plan;
  }
  plan.groups = GroupKeys(order.run(slot));
  if (ctx.baseline_rng == nullptr) {
    SortGroupsByOccurrence(attr.occ_of_key, &plan.groups);
  } else {
    ctx.baseline_rng->Shuffle(plan.groups);
  }
  return plan;
}

// The 1-level CostAll of cutting a category of `tset_size` tuples by
// `plan`: label probabilities and tset sizes are all the cost model
// consumes, so no category is built.
double PlanCost(const LevelContext& ctx, const LevelAttribute& attr,
                const RunPlan& plan, size_t tset_size, double pw) {
  std::vector<double> probs;
  std::vector<size_t> sizes;
  if (attr.numeric) {
    probs.reserve(plan.buckets.size());
    sizes.reserve(plan.buckets.size());
    for (const NumericBucket& bucket : plan.buckets) {
      probs.push_back(ctx.model.estimator().IntervalExplorationProbability(
          attr.name, bucket.lo, bucket.hi));
      sizes.push_back(bucket.count);
    }
  } else {
    probs.reserve(plan.groups.size());
    sizes.reserve(plan.groups.size());
    for (const KeyGroup& group : plan.groups) {
      probs.push_back(attr.prob_of_key[group.key]);
      sizes.push_back(group.count);
    }
  }
  // A "partition" with a single category equal to its parent reduces
  // nothing: for attribute *scoring* it must cost what browsing the tuples
  // costs (otherwise a useless attribute looks cheap), but it is still
  // attached — Figure 6 never revisits a level, so severing the lineage
  // would strand the node above M forever while later attributes could
  // still split it.
  if (sizes.empty() || (sizes.size() == 1 && sizes[0] == tset_size)) {
    return static_cast<double>(tset_size);
  }
  return ctx.model.OneLevelCostAll(pw, tset_size, probs, sizes);
}

// The categories `plan` cuts oversized category `slot` (tset
// `parent_tuples`) into. `group_of_row` is the categorical scratch.
std::vector<PartitionCategory> SlicePlan(
    const LevelContext& ctx, const LevelAttribute& attr, size_t slot,
    const RunPlan& plan, const std::vector<size_t>& parent_tuples,
    std::vector<uint32_t>* group_of_row) {
  if (attr.numeric) {
    return SliceBuckets(attr.name, plan.buckets, attr.order->run(slot));
  }
  group_of_row->resize(ctx.table.num_rows());
  return PartitionKeyGroups(attr.name, *attr.order, attr.order->run(slot),
                            plan.groups, parent_tuples, group_of_row);
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
// Each level plans every oversized category with each candidate it reads
// (PlanRun: buckets or key groups, no tuple vectors or labels), scores a
// candidate from its plans (PlanCost), and slices only the chosen
// candidate's kept plans into categories (SlicePlan), for every technique.
// The baselines' plans draw from a shared Random in candidate and category
// order, so their tree is that of a per-category construction.
//
// `parallel`, when non-null, spreads the per-level candidate scoring over
// threads (cost-based partitionings only: the baselines' draws must be
// made in order). Each candidate's score is computed by exactly the same
// sequence of operations as the sequential loop, and the reduction takes
// the strict minimum in candidate order (earliest wins on ties), so the
// chosen attribute — hence the whole tree — is identical at any thread
// count.
//
// The tree references `result`: `ctx.table` itself, or the builder it is
// a column-backed copy of.
Result<CategoryTree> BuildLevelByLevel(const LevelContext& ctx,
                                       const Table& result,
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

  const Schema& schema = ctx.table.schema();
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
  CategoryTree tree(&result);
  const CostModel& model = ctx.model;
  const ProbabilityEstimator& estimator = model.estimator();
  const size_t max_tuples = ctx.options.max_tuples_per_category;
  const size_t max_levels = ctx.options.max_levels;

  // The categories the orders' runs are for, and the run of each row
  // (-1: none). Level 1 has one: the root, holding every row.
  std::vector<NodeId> slots = {tree.root()};
  std::vector<int32_t> slot_of_row(ctx.table.num_rows(), 0);
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

    // Choose the categorizing attribute for this level, keeping its plan
    // of every oversized category.
    size_t chosen = 0;
    std::vector<RunPlan> chosen_plans;
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
        std::vector<RunPlan> plans;
      };
      const auto evaluate = [&](size_t i, CandidateScore* score) -> Status {
        const LevelAttribute& attr = attrs[i];
        const double pw = estimator.ShowTuplesProbability(attr.name);
        score->plans.reserve(slots.size());
        for (size_t s = 0; s < slots.size(); ++s) {
          AUTOCAT_ASSIGN_OR_RETURN(RunPlan plan, PlanRun(ctx, attr, s));
          score->total +=
              slot_probs[s] *
              PlanCost(ctx, attr, plan, tree.node(slots[s]).tset_size(), pw);
          score->plans.push_back(std::move(plan));
        }
        return Status::OK();
      };

      std::vector<CandidateScore> scores(attrs.size());
      if (ctx.baseline_rng == nullptr && parallel != nullptr &&
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
      chosen_plans = std::move(scores[chosen].plans);
    } else {
      chosen_plans.reserve(slots.size());
      for (size_t s = 0; s < slots.size(); ++s) {
        AUTOCAT_ASSIGN_OR_RETURN(RunPlan plan, PlanRun(ctx, attrs[0], s));
        chosen_plans.push_back(std::move(plan));
      }
    }
    lap(&spent.score_ms);

    // Slice the chosen plans, attach them and consume the attribute.
    bool attached = false;
    for (size_t s = 0; s < slots.size(); ++s) {
      const NodeId id = slots[s];
      for (PartitionCategory& part :
           SlicePlan(ctx, attrs[chosen], s, chosen_plans[s],
                     tree.node(id).tuples, &group_of_row)) {
        tree.AddChild(id, std::move(part.label), std::move(part.tuples));
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

// The level loop over every row of `result`, read through its cells: the
// entry of the baselines and of the fixed-order construction.
Result<CategoryTree> BuildOverRows(const Table& result,
                                   const SelectionProfile* query,
                                   const WorkloadStats& stats,
                                   const CategorizerOptions& options,
                                   const std::vector<std::string>& names,
                                   bool cost_based_choice,
                                   Random* baseline_rng) {
  ProbabilityEstimator estimator(&stats, &result.schema());
  CostModel model(&estimator, options.cost_params);
  std::optional<Table> copy;
  const LevelContext ctx{ColumnBacked(result, &copy), /*index=*/nullptr,
                         stats, options, query, model, baseline_rng};
  return BuildLevelByLevel(ctx, result, names, cost_based_choice,
                           /*parallel=*/nullptr, /*timings=*/nullptr);
}

}  // namespace

std::vector<std::string> CostBasedCategorizer::RetainedAttributes(
    const Schema& schema) const {
  std::vector<std::string> retained;
  for (const std::string& attr : CandidatesOf(options_, schema)) {
    if (stats_->AttrUsageFraction(attr) >=
        options_.attribute_usage_threshold) {
      retained.push_back(attr);
    }
  }
  return retained;
}

Result<CategoryTree> CostBasedCategorizer::Categorize(
    const Table& result, const SelectionProfile* query) const {
  return Categorize(result, query, /*index=*/nullptr, /*timings=*/nullptr);
}

Result<CategoryTree> CostBasedCategorizer::Categorize(
    const Table& result, const SelectionProfile* query,
    const ResultAttributeIndex* index, CategorizeTimings* timings) const {
  if (index != nullptr && index->num_rows != result.num_rows()) {
    return Status::InvalidArgument(
        "attribute index does not cover the result table");
  }
  ProbabilityEstimator estimator(stats_, &result.schema());
  CostModel model(&estimator, options_.cost_params);
  std::optional<Table> copy;
  const LevelContext ctx{ColumnBacked(result, &copy), index, *stats_,
                         options_, query, model, /*baseline_rng=*/nullptr};
  return BuildLevelByLevel(ctx, result, RetainedAttributes(result.schema()),
                           /*cost_based_choice=*/true, &options_.parallel,
                           timings);
}

Result<CategoryTree> CostBasedCategorizer::Categorize(
    const Table& view, const Table& result, const SelectionProfile* query,
    const ResultAttributeIndex* index, CategorizeTimings* timings) const {
  bool same = !view.has_rows() && !result.has_rows() &&
              view.columnar_backing() == result.columnar_backing() &&
              view.num_rows() == result.num_rows() &&
              view.schema() == result.schema();
  for (size_t r = 0; same && r < view.num_rows(); ++r) {
    same = view.backing_row(r) == result.backing_row(r);
  }
  for (size_t c = 0; same && c < view.num_columns(); ++c) {
    same = view.backing_column(c) == result.backing_column(c);
  }
  if (!same) {
    return Status::InvalidArgument(
        "view is not the result table's relation");
  }
  return Categorize(result, query, index, timings);
}

Result<CategoryTree> AttrCostCategorizer::Categorize(
    const Table& result, const SelectionProfile* query) const {
  Random rng(options_.arbitrary_seed);
  return BuildOverRows(result, query, *stats_, options_,
                       CandidatesOf(options_, result.schema()),
                       /*cost_based_choice=*/true, &rng);
}

Result<CategoryTree> CategorizeWithFixedAttributeOrder(
    const Table& result, const std::vector<std::string>& attribute_order,
    const WorkloadStats* stats, const CategorizerOptions& options,
    const SelectionProfile* query) {
  return BuildOverRows(result, query, *stats, options, attribute_order,
                       /*cost_based_choice=*/false, /*baseline_rng=*/nullptr);
}

Result<CategoryTree> NoCostCategorizer::Categorize(
    const Table& result, const SelectionProfile* query) const {
  Random rng(options_.arbitrary_seed);
  std::vector<std::string> candidates =
      CandidatesOf(options_, result.schema());
  rng.Shuffle(candidates);
  return BuildOverRows(result, query, *stats_, options_, candidates,
                       /*cost_based_choice=*/false, &rng);
}

}  // namespace autocat
