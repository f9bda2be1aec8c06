// Presorted-run categorization against a per-node reference.
//
// The level-by-level construction partitions every category from its run
// of a per-request key order per attribute (core/partition.h,
// `AttributeOrder`), narrowed level by level. The oracle here is the
// construction before runs: each node's tuples are re-sorted (numeric) or
// re-grouped (categorical) from the materialized cells, every candidate is
// scored from its full partition, and the bucket planner counts with
// binary searches. Every technique's tree must match it node by node —
// labels, tset sizes and tuple order — with and without the cold
// pipeline's attribute index, over row-backed, column-backed and
// selection results and a segment-store copy (whose rank codes its
// writer derived), at threads {1, 2, 7, 16}, over tables with NULL,
// NaN, -0.0, ±inf, int64-extreme, 2^53 ± 1 and heavily duplicated cells,
// int64 and double categoricals, an all-NULL candidate and a kNull-typed
// one, single-row and empty results, and query ranges narrower than the
// data.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/categorizer.h"
#include "core/partition.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "exec/pipeline/cold_path.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "store/store.h"
#include "store/writer.h"
#include "workload/counts.h"
#include "workload/workload.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

using equiv::BitIdentical;

constexpr size_t kThreadCounts[] = {1, 2, 7, 16};
constexpr const char* kNeighborhoods[] = {"N0", "N1", "N2", "N3", "N4",
                                          "N5", "N6", "N7", "N8"};

Schema RunsSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("sqft", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("bedrooms", ValueType::kInt64, ColumnKind::kCategorical),
      ColumnDef("rating", ValueType::kDouble, ColumnKind::kCategorical),
      ColumnDef("note", ValueType::kString, ColumnKind::kCategorical),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

// Heavy duplicates everywhere (few distinct values), NULLs in every
// column, NaN and ±inf in both double columns, int64 extremes in price,
// and an all-NULL `note` column.
Table MakeRunsTable(size_t n, uint64_t seed) {
  Table table(RunsSchema());
  Random rng(seed);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kRatings[] = {1.5, 2.5, 3.5, 4.5, kInf, kNaN};
  for (size_t i = 0; i < n; ++i) {
    Row row;
    const auto cell = [&](Value v) {
      row.push_back(rng.Bernoulli(0.08) ? Value() : std::move(v));
    };
    cell(Value(kNeighborhoods[rng.Zipf(9, 1.1)]));
    int64_t price = 100000 + 5000 * rng.Uniform(0, 80);
    if (i % 41 == 0) {
      price = i % 82 == 0 ? std::numeric_limits<int64_t>::max()
                          : std::numeric_limits<int64_t>::min();
    }
    cell(Value(price));
    double sqft = 100.0 * static_cast<double>(rng.Uniform(5, 40));
    if (i % 37 == 0) {
      sqft = i % 74 == 0 ? kNaN : (i % 111 == 0 ? -kInf : kInf);
    }
    cell(Value(sqft));
    cell(Value(rng.Uniform(1, 6)));
    cell(Value(kRatings[rng.Uniform(0, 5)]));
    row.push_back(Value());
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

WorkloadStats MakeStats(uint64_t seed, const Schema& schema = RunsSchema()) {
  Random rng(seed);
  std::vector<std::string> sqls;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> conds;
    if (rng.Bernoulli(0.6)) {
      const int64_t lo = 100000 + 5000 * rng.Uniform(0, 60);
      const int64_t hi = lo + 5000 * rng.Uniform(1, 30);
      conds.push_back("price BETWEEN " + std::to_string(lo) + " AND " +
                      std::to_string(hi));
    }
    if (rng.Bernoulli(0.5)) {
      std::string in = "neighborhood IN ('" +
                       std::string(kNeighborhoods[rng.Uniform(0, 8)]) + "'";
      if (rng.Bernoulli(0.5)) {
        in += ", '" + std::string(kNeighborhoods[rng.Uniform(0, 8)]) + "'";
      }
      conds.push_back(in + ")");
    }
    if (rng.Bernoulli(0.4)) {
      conds.push_back("sqft >= " + std::to_string(100 * rng.Uniform(5, 40)));
    }
    if (rng.Bernoulli(0.4)) {
      conds.push_back("bedrooms = " + std::to_string(rng.Uniform(1, 6)));
    }
    if (rng.Bernoulli(0.3)) {
      conds.push_back(rng.Bernoulli(0.5) ? "rating = 2.5"
                                         : "rating IN (1.5, 4.5)");
    }
    if (rng.Bernoulli(0.1)) {
      conds.push_back("note = 'x'");
    }
    if (conds.empty()) {
      continue;
    }
    std::string sql = "SELECT * FROM runs WHERE " + conds[0];
    for (size_t c = 1; c < conds.size(); ++c) {
      sql += " AND " + conds[c];
    }
    sqls.push_back(sql);
  }
  WorkloadParseReport report;
  const Workload workload = Workload::Parse(sqls, schema, &report);
  EXPECT_EQ(report.parsed, sqls.size());
  WorkloadStatsOptions options;
  options.split_intervals = {{"price", 5000}, {"sqft", 100}};
  auto stats = WorkloadStats::Build(workload, schema, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(stats).value();
}

SelectionProfile ProfileOf(const std::string& sql) {
  auto query = ParseQuery(sql);
  EXPECT_TRUE(query.ok()) << sql;
  auto profile = SelectionProfile::FromQuery(query.value(), RunsSchema());
  EXPECT_TRUE(profile.ok()) << sql;
  return std::move(profile).value();
}

// ------------------------------------------------- per-node reference

using ValuePairs = std::vector<std::pair<double, size_t>>;

// Non-NULL, non-NaN (value, tuple) pairs of `tuples`, sorted.
ValuePairs RefSortedValues(const Table& t, const std::vector<size_t>& tuples,
                           size_t col) {
  ValuePairs out;
  for (const size_t idx : tuples) {
    const Value v = t.CellValue(idx, col);
    if (!v.is_null() && !std::isnan(v.AsDouble())) {
      out.emplace_back(v.AsDouble(), idx);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Groups of the non-NULL, non-NaN cells of `tuples` in value order, each
// group's tuples in the order of `tuples`.
std::vector<std::pair<Value, std::vector<size_t>>> RefGroups(
    const Table& t, const std::vector<size_t>& tuples, size_t col) {
  std::map<Value, std::vector<size_t>> groups;
  for (const size_t idx : tuples) {
    const Value v = t.CellValue(idx, col);
    if (!v.is_null() && !(v.is_double() && std::isnan(v.double_value()))) {
      groups[v].push_back(idx);
    }
  }
  return {groups.begin(), groups.end()};
}

size_t RefCountInRange(const ValuePairs& values, double lo, double hi,
                       bool closed) {
  size_t count = 0;
  for (const auto& [v, idx] : values) {
    (void)idx;
    if (v >= lo && (closed ? v <= hi : v < hi)) {
      ++count;
    }
  }
  return count;
}

void RefRange(const ValuePairs& values, const NumericRange* range,
              double* vmin, double* vmax) {
  *vmin = values.front().first;
  *vmax = values.back().first;
  if (range != nullptr && std::isfinite(range->lo)) *vmin = range->lo;
  if (range != nullptr && std::isfinite(range->hi)) *vmax = range->hi;
  *vmin = std::min(*vmin, values.front().first);
  *vmax = std::max(*vmax, values.back().first);
}

// Buckets [b_i, b_{i+1}) (last closed) over the sorted pairs, empties
// dropped, by a linear scan.
std::vector<PartitionCategory> RefBuckets(const std::string& attr,
                                          const ValuePairs& values,
                                          const std::vector<double>& bounds) {
  std::vector<PartitionCategory> out;
  for (size_t b = 0; b + 1 < bounds.size(); ++b) {
    const bool last = b + 2 == bounds.size();
    PartitionCategory part;
    part.label = CategoryLabel::Numeric(attr, bounds[b], bounds[b + 1], last);
    for (const auto& [v, idx] : values) {
      if (v >= bounds[b] && (last ? v <= bounds[b + 1] : v < bounds[b + 1])) {
        part.tuples.push_back(idx);
      }
    }
    if (!part.tuples.empty()) {
      out.push_back(std::move(part));
    }
  }
  return out;
}

std::vector<PartitionCategory> RefCostNumeric(
    const std::string& attr, const ValuePairs& values,
    const WorkloadStats& stats, const CategorizerOptions& options,
    const NumericRange* range) {
  if (values.empty()) {
    return {};
  }
  double vmin = 0;
  double vmax = 0;
  RefRange(values, range, &vmin, &vmax);
  if (vmin == vmax) {
    return RefBuckets(attr, values, {vmin, vmax});
  }
  const size_t budget = std::max<size_t>(1, options.max_tuples_per_category);
  size_t m = options.num_buckets;
  if (m == 0) {
    m = std::clamp<size_t>(2 * ((values.size() + budget - 1) / budget), 2,
                           std::max<size_t>(2, options.max_buckets));
  }
  std::vector<SplitPoint> cands = stats.SplitPointsInRange(attr, vmin, vmax);
  std::stable_sort(cands.begin(), cands.end(),
                   [](const SplitPoint& a, const SplitPoint& b) {
                     if (a.goodness() != b.goodness()) {
                       return a.goodness() > b.goodness();
                     }
                     return a.v < b.v;
                   });
  std::set<double> chosen;
  for (const SplitPoint& cand : cands) {
    if (chosen.size() + 1 >= m) break;
    if (chosen.count(cand.v) > 0 || cand.v <= vmin || cand.v >= vmax) {
      continue;
    }
    const auto next = chosen.upper_bound(cand.v);
    const double hi = next == chosen.end() ? vmax : *next;
    const double lo = next == chosen.begin() ? vmin : *std::prev(next);
    if (RefCountInRange(values, lo, cand.v, false) <
            options.min_bucket_tuples ||
        RefCountInRange(values, cand.v, hi, next == chosen.end()) <
            options.min_bucket_tuples) {
      continue;
    }
    chosen.insert(cand.v);
  }
  std::vector<double> bounds = {vmin};
  bounds.insert(bounds.end(), chosen.begin(), chosen.end());
  bounds.push_back(vmax);
  return RefBuckets(attr, values, bounds);
}

std::vector<PartitionCategory> RefEquiWidth(const std::string& attr,
                                            const ValuePairs& values,
                                            double width,
                                            const NumericRange* range) {
  if (values.empty()) {
    return {};
  }
  double vmin = 0;
  double vmax = 0;
  RefRange(values, range, &vmin, &vmax);
  std::vector<double> bounds = {std::floor(vmin / width) * width};
  bool cut = std::isfinite(vmax - bounds.front());
  while (cut && bounds.back() < vmax) {
    const double next = bounds.back() + width;
    cut = next != bounds.back() && bounds.size() <= (size_t{1} << 20);
    bounds.push_back(next);
  }
  if (!cut) {
    bounds = {bounds.front(), vmax};
  }
  if (bounds.size() < 2) {
    bounds.push_back(bounds.front() + width);
  }
  return RefBuckets(attr, values, bounds);
}

// What every reference technique reads; `rng` non-null selects the
// baseline partitionings.
struct RefContext {
  const Table& result;
  const WorkloadStats& stats;
  const CategorizerOptions& options;
  const SelectionProfile* query;
  Random* rng;
};

const NumericRange* RangeOf(const SelectionProfile* query,
                            const std::string& attr) {
  const AttributeCondition* cond =
      query == nullptr ? nullptr : query->Find(attr);
  return cond != nullptr && cond->is_range() ? &cond->range : nullptr;
}

std::vector<PartitionCategory> RefPartition(const RefContext& ctx,
                                            const std::vector<size_t>& tuples,
                                            const std::string& attr) {
  const size_t col = ctx.result.schema().ColumnIndex(attr).value();
  if (ctx.result.schema().column(col).kind == ColumnKind::kNumeric) {
    const ValuePairs values = RefSortedValues(ctx.result, tuples, col);
    if (ctx.rng == nullptr) {
      return RefCostNumeric(attr, values, ctx.stats, ctx.options,
                            RangeOf(ctx.query, attr));
    }
    return RefEquiWidth(attr, values,
                        ctx.options.equiwidth_interval_multiplier *
                            ctx.stats.split_interval(attr),
                        RangeOf(ctx.query, attr));
  }
  auto groups = RefGroups(ctx.result, tuples, col);
  if (ctx.rng == nullptr) {
    std::stable_sort(groups.begin(), groups.end(),
                     [&](const auto& a, const auto& b) {
                       return ctx.stats.OccurrenceCount(attr, a.first) >
                              ctx.stats.OccurrenceCount(attr, b.first);
                     });
  }
  std::vector<PartitionCategory> out;
  for (auto& [value, group] : groups) {
    out.push_back(PartitionCategory{
        CategoryLabel::Categorical(attr, {value}), std::move(group)});
  }
  if (ctx.rng != nullptr) {
    ctx.rng->Shuffle(out);
  }
  return out;
}

// Figure 6, single-phase: every candidate of a level is partitioned per
// oversized node, scored, and the strict minimum's partitions attached.
CategoryTree RefBuild(const RefContext& ctx,
                      std::vector<std::string> candidates,
                      bool cost_based_choice) {
  ProbabilityEstimator estimator(&ctx.stats, &ctx.result.schema());
  CostModel model(&estimator, ctx.options.cost_params);
  CategoryTree tree(&ctx.result);
  const size_t max_tuples = ctx.options.max_tuples_per_category;
  int level = 1;
  while (!candidates.empty()) {
    std::vector<NodeId> oversized;
    for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
      if (tree.node(id).level == level - 1 &&
          tree.node(id).tset_size() > max_tuples) {
        oversized.push_back(id);
      }
    }
    if (oversized.empty()) {
      break;
    }
    size_t chosen = 0;
    std::vector<std::vector<PartitionCategory>> chosen_parts;
    if (!cost_based_choice) {
      for (const NodeId id : oversized) {
        chosen_parts.push_back(
            RefPartition(ctx, tree.node(id).tuples, candidates[0]));
      }
    } else {
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < candidates.size(); ++i) {
        const double pw = estimator.ShowTuplesProbability(candidates[i]);
        double total = 0;
        std::vector<std::vector<PartitionCategory>> parts_of_nodes;
        for (const NodeId id : oversized) {
          const CategoryNode& node = tree.node(id);
          auto parts = RefPartition(ctx, node.tuples, candidates[i]);
          double cost = static_cast<double>(node.tset_size());
          if (!parts.empty() && !(parts.size() == 1 &&
                                  parts[0].tuples.size() == node.tset_size())) {
            std::vector<double> probs;
            std::vector<size_t> sizes;
            for (const PartitionCategory& part : parts) {
              probs.push_back(estimator.ExplorationProbability(part.label));
              sizes.push_back(part.tuples.size());
            }
            cost = model.OneLevelCostAll(pw, node.tset_size(), probs, sizes);
          }
          total += model.NodeExplorationProbability(tree, id) * cost;
          parts_of_nodes.push_back(std::move(parts));
        }
        if (total < best) {
          best = total;
          chosen = i;
          chosen_parts = std::move(parts_of_nodes);
        }
      }
    }
    bool attached = false;
    for (size_t s = 0; s < oversized.size(); ++s) {
      for (PartitionCategory& part : chosen_parts[s]) {
        tree.AddChild(oversized[s], std::move(part.label),
                      std::move(part.tuples));
        attached = true;
      }
    }
    if (attached) {
      tree.AppendLevelAttribute(candidates[chosen]);
      ++level;
    }
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(chosen));
  }
  return tree;
}

void ExpectLabelsIdentical(const CategoryLabel& a, const CategoryLabel& b,
                           const std::string& context) {
  EXPECT_EQ(a.attribute(), b.attribute()) << context;
  ASSERT_EQ(a.is_categorical(), b.is_categorical()) << context;
  if (a.is_categorical()) {
    ASSERT_EQ(a.values().size(), b.values().size()) << context;
    for (size_t v = 0; v < a.values().size(); ++v) {
      EXPECT_TRUE(BitIdentical(a.values()[v], b.values()[v]))
          << context << ": " << a.ToString() << " vs " << b.ToString();
    }
  } else {
    EXPECT_TRUE(BitIdentical(Value(a.lo()), Value(b.lo()))) << context;
    EXPECT_TRUE(BitIdentical(Value(a.hi()), Value(b.hi()))) << context;
    EXPECT_EQ(a.hi_inclusive(), b.hi_inclusive()) << context;
  }
}

// Node by node: links, level, label and the tuple list in order.
void ExpectSameTree(const CategoryTree& want, const CategoryTree& got,
                    const std::string& context) {
  EXPECT_EQ(want.level_attributes(), got.level_attributes()) << context;
  ASSERT_EQ(want.num_nodes(), got.num_nodes()) << context;
  for (NodeId id = 0; id < static_cast<NodeId>(want.num_nodes()); ++id) {
    const CategoryNode& a = want.node(id);
    const CategoryNode& b = got.node(id);
    const std::string where = context + " node " + std::to_string(id);
    ASSERT_EQ(a.parent, b.parent) << where;
    ASSERT_EQ(a.children, b.children) << where;
    ASSERT_EQ(a.level, b.level) << where;
    ASSERT_EQ(a.tuples, b.tuples) << where;
    if (!a.is_root()) {
      ExpectLabelsIdentical(a.label, b.label, where);
    }
  }
}

// A cold-pipeline result over the shadow: the result (a selection over
// the shadow), its attribute index, and the same rows copied into a
// builder table (`SelectProjectRows`).
struct ShadowResult {
  Table result;
  ResultAttributeIndex index;
  Table rows;
};

// The cold pipeline over `base`, a table as a Database holds it
// (column-backed over its shadow).
ShadowResult RunPipeline(const Table& base, const std::string& sql,
                         const std::vector<std::string>& columns) {
  const SelectionProfile profile = ProfileOf(sql);
  const std::shared_ptr<const ColumnarTable>& shadow =
      base.columnar_backing();
  auto compiled =
      CompiledPredicate::CompileProfile(profile, base.schema(), shadow);
  EXPECT_TRUE(compiled.ok()) << sql;
  auto piped = RunColdPipeline(compiled.value(), base, shadow.get(), columns,
                               ColdPipelineOptions{});
  EXPECT_TRUE(piped.ok()) << sql << ": " << piped.status().ToString();
  auto rows = SelectProjectRows(
      base,
      std::vector<size_t>(piped->selection.begin(), piped->selection.end()),
      columns);
  EXPECT_TRUE(rows.ok()) << sql;
  return ShadowResult{std::move(piped->result), std::move(piped->attr_index),
                      std::move(rows).value()};
}

CategorizerOptions RunsOptions(size_t max_tuples) {
  CategorizerOptions options;
  options.max_tuples_per_category = max_tuples;
  options.attribute_usage_threshold = 0.0;
  return options;
}

// Every cost-based entry point against the reference, for one result.
void ExpectCostBasedMatches(const WorkloadStats& stats,
                            const ShadowResult& shadowed,
                            const SelectionProfile* query,
                            size_t max_tuples, const std::string& context) {
  const Table& result = shadowed.result;
  // The same rows installed on their own (a compact shadow), and the cold
  // pipeline over every one of them: its index is over that shadow.
  const Table compact = Table::FromColumnar(
      shadowed.rows.schema(), std::make_shared<const ColumnarTable>(
                                  ColumnarTable::Build(shadowed.rows)));
  const ShadowResult whole = RunPipeline(compact, "SELECT * FROM runs", {});
  CategorizerOptions options = RunsOptions(max_tuples);
  const RefContext ref_ctx{result, stats, options, query, nullptr};
  const CostBasedCategorizer reference_categorizer(&stats, options);
  const CategoryTree want = RefBuild(
      ref_ctx, reference_categorizer.RetainedAttributes(result.schema()),
      /*cost_based_choice=*/true);
  // Every selection is large enough for a tree at least two levels deep.
  EXPECT_GE(want.max_depth(), 2) << context;
  for (const size_t threads : kThreadCounts) {
    options.parallel.threads = threads;
    const CostBasedCategorizer categorizer(&stats, options);
    const std::string at = context + " threads=" + std::to_string(threads);
    AUTOCAT_ASSERT_OK_AND_MOVE(const CategoryTree from_rows,
                               categorizer.Categorize(shadowed.rows, query));
    ExpectSameTree(want, from_rows, at + " (row table)");
    AUTOCAT_ASSERT_OK_AND_MOVE(const CategoryTree from_table,
                               categorizer.Categorize(result, query));
    ExpectSameTree(want, from_table, at + " (selection table)");
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const CategoryTree from_serving,
        categorizer.Categorize(result, query, nullptr, nullptr));
    ExpectSameTree(want, from_serving, at + " (serving entry)");
    CategorizeTimings timings;
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const CategoryTree from_index,
        categorizer.Categorize(result, query, &shadowed.index, &timings));
    ExpectSameTree(want, from_index, at + " (serving entry + index)");
    EXPECT_GE(timings.orders_ms, 0) << at;
    EXPECT_GE(timings.score_ms, 0) << at;
    EXPECT_GE(timings.attach_ms, 0) << at;
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const CategoryTree compact_with_index,
        categorizer.Categorize(whole.result, query, &whole.index, nullptr));
    ExpectSameTree(want, compact_with_index,
                   at + " (compact result + index)");
  }
}

class CategorizeRunsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rows_ = MakeRunsTable(900, 11);
    stats_ = std::make_unique<WorkloadStats>(MakeStats(12));
    ASSERT_TRUE(db_.RegisterTable("runs", Table(rows_)).ok());
    AUTOCAT_ASSERT_OK_AND_MOVE(base_, db_.GetTable("runs"));
  }

  // The generated rows, and the column-backed table the Database holds.
  Table rows_;
  const Table* base_ = nullptr;
  std::unique_ptr<WorkloadStats> stats_;
  Database db_;
};

TEST_F(CategorizeRunsTest, CostBasedMatchesPerNodeReference) {
  const SelectionProfile narrow =
      ProfileOf("SELECT * FROM runs WHERE price BETWEEN 200000 AND 250000 "
                "AND sqft BETWEEN 1000 AND 1200");
  const SelectionProfile wide =
      ProfileOf("SELECT * FROM runs WHERE price >= 0");
  const struct {
    const char* sql;
    std::vector<std::string> columns;
  } kSelections[] = {
      {"SELECT * FROM runs WHERE bedrooms IN (1, 2, 3, 4, 5, 6)", {}},
      {"SELECT * FROM runs WHERE neighborhood IN ('N0', 'N1', 'N4')", {}},
      {"SELECT * FROM runs WHERE price BETWEEN 150000 AND 400000",
       {"rating", "price", "neighborhood", "bedrooms"}},
      {"SELECT * FROM runs WHERE sqft >= 1500", {}},
  };
  for (const auto& selection : kSelections) {
    const ShadowResult shadowed =
        RunPipeline(*base_, selection.sql, selection.columns);
    ASSERT_GT(shadowed.result.num_rows(), 40u) << selection.sql;
    for (const SelectionProfile* query :
         {static_cast<const SelectionProfile*>(nullptr), &narrow, &wide}) {
      for (const size_t max_tuples : {size_t{20}, size_t{4}}) {
        ExpectCostBasedMatches(
            *stats_, shadowed, query, max_tuples,
            std::string(selection.sql) + " M=" + std::to_string(max_tuples) +
                (query == nullptr ? "" : " query"));
      }
    }
  }
}

TEST_F(CategorizeRunsTest, BaselinesAndFixedOrderMatchPerNodeReference) {
  const SelectionProfile narrow =
      ProfileOf("SELECT * FROM runs WHERE price BETWEEN 200000 AND 250000");
  const ShadowResult shadowed =
      RunPipeline(*base_, "SELECT * FROM runs WHERE price >= 0", {});
  const Table& result = shadowed.result;
  for (const SelectionProfile* query :
       {static_cast<const SelectionProfile*>(nullptr), &narrow}) {
    for (const size_t max_tuples : {size_t{20}, size_t{4}}) {
      const CategorizerOptions options = RunsOptions(max_tuples);
      const std::string context = "M=" + std::to_string(max_tuples) +
                                  (query == nullptr ? "" : " query");
      const std::vector<std::string> all = {"neighborhood", "price", "sqft",
                                            "bedrooms", "rating", "note"};
      {
        Random rng(options.arbitrary_seed);
        const CategoryTree want =
            RefBuild(RefContext{result, *stats_, options, query, &rng}, all,
                     /*cost_based_choice=*/true);
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const CategoryTree got,
            AttrCostCategorizer(stats_.get(), options)
                .Categorize(result, query));
        ExpectSameTree(want, got, "Attr-cost " + context);
      }
      {
        Random rng(options.arbitrary_seed);
        std::vector<std::string> shuffled = all;
        rng.Shuffle(shuffled);
        const CategoryTree want =
            RefBuild(RefContext{result, *stats_, options, query, &rng},
                     shuffled, /*cost_based_choice=*/false);
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const CategoryTree got,
            NoCostCategorizer(stats_.get(), options)
                .Categorize(result, query));
        ExpectSameTree(want, got, "No cost " + context);
      }
      for (const std::vector<std::string>& order :
           std::vector<std::vector<std::string>>{
               {"price", "neighborhood", "sqft", "rating", "bedrooms"},
               {"note", "bedrooms", "rating", "price"},
               {"sqft", "sqft", "neighborhood"}}) {
        const CategoryTree want =
            RefBuild(RefContext{result, *stats_, options, query, nullptr},
                     order, /*cost_based_choice=*/false);
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const CategoryTree got,
            CategorizeWithFixedAttributeOrder(result, order, stats_.get(),
                                              options, query));
        ExpectSameTree(want, got, "fixed order " + context);
      }
    }
  }
}

// Results at the edges: empty, a single row, the rows priced at the int64
// minimum, a result whose only candidate is the all-NULL column, and one
// where it is scored alongside the others (it never partitions anything),
// for every technique. M = 0 keeps partitioning one-row categories until
// the candidates run out.
TEST_F(CategorizeRunsTest, EdgeResultsMatchPerNodeReference) {
  Database single_db;
  ASSERT_TRUE(single_db.RegisterTable("runs", MakeRunsTable(1, 3)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* single, single_db.GetTable("runs"));
  const struct {
    const Table* base;
    const char* sql;
    std::vector<std::string> candidates;
  } kCases[] = {
      {base_, "SELECT * FROM runs WHERE price BETWEEN 1 AND 2", {}},
      {base_, "SELECT * FROM runs WHERE price < 0", {}},
      {single, "SELECT * FROM runs", {}},
      {base_, "SELECT * FROM runs WHERE bedrooms IN (1, 2, 3)", {"note"}},
      {base_, "SELECT * FROM runs WHERE bedrooms IN (1, 2, 3)",
       {"note", "bedrooms", "rating"}},
  };
  for (const auto& c : kCases) {
    const ShadowResult shadowed = RunPipeline(*c.base, c.sql, {});
    CategorizerOptions options = RunsOptions(0);
    options.candidate_attributes = c.candidates;
    const RefContext ref_ctx{shadowed.result, *stats_, options, nullptr,
                             nullptr};
    const CategoryTree want = RefBuild(
        ref_ctx,
        CostBasedCategorizer(stats_.get(), options)
            .RetainedAttributes(shadowed.result.schema()),
        /*cost_based_choice=*/true);
    for (const size_t threads : kThreadCounts) {
      options.parallel.threads = threads;
      const CostBasedCategorizer categorizer(stats_.get(), options);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree got,
          categorizer.Categorize(shadowed.result, nullptr, &shadowed.index,
                                 nullptr));
      ExpectSameTree(want, got, c.sql);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree from_table,
          categorizer.Categorize(shadowed.result, nullptr));
      ExpectSameTree(want, from_table, c.sql);
    }
    // The baselines on the same results: empty plans (a shuffle of zero
    // groups), and levels that attach nothing and retry with the next
    // candidate.
    std::vector<std::string> all = c.candidates;
    if (all.empty()) {
      for (size_t col = 0; col < shadowed.result.num_columns(); ++col) {
        all.push_back(shadowed.result.schema().column(col).name);
      }
    }
    {
      Random rng(options.arbitrary_seed);
      const CategoryTree want_attr_cost = RefBuild(
          RefContext{shadowed.result, *stats_, options, nullptr, &rng}, all,
          /*cost_based_choice=*/true);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree got,
          AttrCostCategorizer(stats_.get(), options)
              .Categorize(shadowed.result, nullptr));
      ExpectSameTree(want_attr_cost, got, std::string("Attr-cost ") + c.sql);
    }
    {
      Random rng(options.arbitrary_seed);
      std::vector<std::string> shuffled = all;
      rng.Shuffle(shuffled);
      const CategoryTree want_no_cost = RefBuild(
          RefContext{shadowed.result, *stats_, options, nullptr, &rng},
          shuffled, /*cost_based_choice=*/false);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree got,
          NoCostCategorizer(stats_.get(), options)
              .Categorize(shadowed.result, nullptr));
      ExpectSameTree(want_no_cost, got, std::string("No cost ") + c.sql);
    }
  }
}

// The per-node entry points build a one-run order over any tuple list
// (a subset, in any order) and must equal the reference partitioners,
// read through a selection of every row of the row table (which builds
// its own shadow) and through the column-backed table the Database holds.
TEST_F(CategorizeRunsTest, PerNodeFunctionsMatchReference) {
  std::vector<uint32_t> every_row(rows_.num_rows());
  std::iota(every_row.begin(), every_row.end(), uint32_t{0});
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table of_rows,
                             Table::Select(rows_, nullptr, every_row, {}));
  const Table& columnar = *base_;
  const CategorizerOptions options = RunsOptions(20);
  Random rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<size_t> tuples;
    for (size_t r = 0; r < rows_.num_rows(); ++r) {
      if (rng.Bernoulli(trial % 2 == 0 ? 0.5 : 0.05)) {
        tuples.push_back(r);
      }
    }
    rng.Shuffle(tuples);
    const std::string context = "trial " + std::to_string(trial);
    for (const Table* table : {&of_rows, &columnar}) {
      for (const std::string attr : {"neighborhood", "bedrooms", "rating"}) {
        const RefContext cost_ctx{rows_, *stats_, options, nullptr, nullptr};
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const auto got,
            PartitionCategorical(*table, tuples, attr, *stats_));
        equiv::ExpectPartitionsIdentical(RefPartition(cost_ctx, tuples, attr),
                                         got, context + " " + attr);
        Random ref_rng(trial);
        Random got_rng(trial);
        const RefContext arb_ctx{rows_, *stats_, options, nullptr, &ref_rng};
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const auto arbitrary,
            PartitionCategoricalArbitrary(*table, tuples, attr, &got_rng));
        equiv::ExpectPartitionsIdentical(RefPartition(arb_ctx, tuples, attr),
                                         arbitrary,
                                         context + " arbitrary " + attr);
      }
      for (const std::string attr : {"price", "sqft"}) {
        const RefContext cost_ctx{rows_, *stats_, options, nullptr, nullptr};
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const auto got, PartitionNumeric(*table, tuples, attr, *stats_,
                                             options, nullptr));
        equiv::ExpectPartitionsIdentical(RefPartition(cost_ctx, tuples, attr),
                                         got, context + " " + attr);
        const double width = options.equiwidth_interval_multiplier *
                             stats_->split_interval(attr);
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const auto equi,
            PartitionNumericEquiWidth(*table, tuples, attr, width, nullptr));
        equiv::ExpectPartitionsIdentical(
            RefEquiWidth(attr, RefSortedValues(rows_, tuples,
                                               rows_.schema()
                                                   .ColumnIndex(attr)
                                                   .value()),
                         width, nullptr),
            equi, context + " equi-width " + attr);
      }
    }
  }
}

// Distribute keeps each run in key order and drops rows without a slot.
TEST_F(CategorizeRunsTest, DistributeNarrowsStably) {
  const size_t col = rows_.schema().ColumnIndex("neighborhood").value();
  AUTOCAT_ASSERT_OK_AND_MOVE(
      AttributeOrder order,
      AttributeOrder::Build(*base_, col, nullptr, nullptr));
  std::vector<int32_t> slot_of_row(rows_.num_rows());
  for (size_t r = 0; r < slot_of_row.size(); ++r) {
    slot_of_row[r] = static_cast<int32_t>(r % 4) - 1;  // -1, 0, 1, 2
  }
  order.Distribute(slot_of_row, 3);
  ASSERT_EQ(order.num_runs(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    const auto run = order.run(s);
    std::vector<size_t> expected;
    for (size_t r = 0; r < rows_.num_rows(); ++r) {
      if (slot_of_row[r] == static_cast<int32_t>(s) &&
          !rows_.CellValue(r, col).is_null()) {
        expected.push_back(r);
      }
    }
    ASSERT_EQ(run.size(), expected.size()) << "run " << s;
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(slot_of_row[run[i].second], static_cast<int32_t>(s));
      if (i > 0) {
        EXPECT_LT(run[i - 1], run[i]) << "run " << s << " entry " << i;
      }
      EXPECT_TRUE(BitIdentical(order.key_value(run[i].first),
                               rows_.CellValue(run[i].second, col)));
    }
  }
}

// RunsSchema plus a kNull-typed column.
Schema HostileKeysSchema() {
  std::vector<ColumnDef> columns = RunsSchema().columns();
  columns.emplace_back("void", ValueType::kNull, ColumnKind::kCategorical);
  auto schema = Schema::Create(std::move(columns));
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Keys that break a careless order: 2^53 and 2^53 + 1 (one double apart
// from nothing: both cast to 2^53), the int64 extremes, NaN, -0.0 next to
// 0.0, and NULL, in the numeric and the categorical int64/double columns,
// among ordinary values; `void` (left out when `with_void` is false, so
// the table has RunsSchema) is NULL throughout.
Table MakeHostileKeysTable(size_t n, uint64_t seed, bool with_void = true) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Value prices[] = {Value(kTwo53), Value(kTwo53 + 1),
                          Value(kTwo53 - 1),
                          Value(std::numeric_limits<int64_t>::min()),
                          Value(std::numeric_limits<int64_t>::max()),
                          Value()};
  const Value doubles[] = {Value(kNaN), Value(-0.0), Value(0.0), Value()};
  const Value ints[] = {Value(kTwo53), Value(kTwo53 + 1),
                        Value(std::numeric_limits<int64_t>::min()),
                        Value(std::numeric_limits<int64_t>::max()),
                        Value()};
  Table table(with_void ? HostileKeysSchema() : RunsSchema());
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool hostile = rng.Bernoulli(0.5);
    Row row;
    row.push_back(rng.Bernoulli(0.05)
                      ? Value()
                      : Value(kNeighborhoods[rng.Uniform(0, 8)]));
    row.push_back(hostile ? prices[rng.Uniform(0, 5)]
                          : Value(100000 + 5000 * rng.Uniform(0, 80)));
    row.push_back(hostile ? doubles[rng.Uniform(0, 3)]
                          : Value(100.0 * static_cast<double>(
                                              rng.Uniform(5, 40))));
    row.push_back(hostile ? ints[rng.Uniform(0, 4)]
                          : Value(rng.Uniform(1, 6)));
    row.push_back(hostile ? doubles[rng.Uniform(0, 3)]
                          : Value(rng.Bernoulli(0.5) ? 1.5 : 2.5));
    row.push_back(Value());
    if (with_void) {
      row.push_back(Value());
    }
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

const char kHostileSql[] =
    "SELECT * FROM runs WHERE neighborhood IN ('N0', 'N1', 'N2', 'N3', "
    "'N4', 'N5', 'N6', 'N7', 'N8')";

// The orders over `table`, a column-backed hostile-keys table: the
// numeric order ties the int64 cells that cast to one double, and orders
// them by row; the categorical int64 order keeps 2^53 and 2^53 + 1 apart.
void ExpectHostileOrders(const Table& table, const std::string& context) {
  const Schema& schema = table.schema();
  const size_t price = schema.ColumnIndex("price").value();
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const AttributeOrder by_price,
      AttributeOrder::Build(table, price, nullptr, nullptr));
  ASSERT_TRUE(by_price.numeric()) << context;
  size_t tied = 0;
  const auto run = by_price.run(0);
  for (size_t i = 1; i < run.size(); ++i) {
    ASSERT_LT(run[i - 1], run[i]) << context;
    if (by_price.key_number(run[i].first) == static_cast<double>(kTwo53) &&
        run[i - 1].first == run[i].first) {
      ++tied;
    }
  }
  EXPECT_GT(tied, 10u) << context << ": 2^53 and 2^53 + 1 cells should tie";
  const size_t bedrooms = schema.ColumnIndex("bedrooms").value();
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const AttributeOrder by_bedrooms,
      AttributeOrder::Build(table, bedrooms, nullptr, nullptr));
  ASSERT_FALSE(by_bedrooms.numeric()) << context;
  std::set<int64_t> keys;
  for (size_t k = 0; k < by_bedrooms.num_keys(); ++k) {
    keys.insert(by_bedrooms.key_value(static_cast<uint32_t>(k)).int64_value());
  }
  EXPECT_EQ(keys.count(kTwo53), 1u) << context;
  EXPECT_EQ(keys.count(kTwo53 + 1), 1u) << context;
}

// Every technique's tree over `rows` (a row-backed result) is the
// per-node reference's, labels bit for bit: a categorical group of -0.0
// and 0.0 cells is labelled with its first tuple's cell by both. Each of
// `inputs` (the same rows in another representation) builds the same
// trees, and so does the serving call over `shadowed` (the same rows
// selected by the cold pipeline) at every thread count.
void ExpectHostileTreesAlike(
    const Table& rows,
    const std::vector<std::pair<std::string, const Table*>>& inputs,
    const ShadowResult& shadowed) {
  const Schema& schema = rows.schema();
  const WorkloadStats stats = MakeStats(12, schema);
  for (const size_t max_tuples : {size_t{20}, size_t{4}}) {
    CategorizerOptions options = RunsOptions(max_tuples);
    const std::string m = " M=" + std::to_string(max_tuples);
    const CategoryTree want_cost = RefBuild(
        RefContext{rows, stats, options, nullptr, nullptr},
        CostBasedCategorizer(&stats, options).RetainedAttributes(schema),
        /*cost_based_choice=*/true);
    EXPECT_GE(want_cost.max_depth(), 2) << m;
    std::vector<std::string> all;
    for (const ColumnDef& col : schema.columns()) {
      all.push_back(col.name);
    }
    Random attr_rng(options.arbitrary_seed);
    const CategoryTree want_attr_cost =
        RefBuild(RefContext{rows, stats, options, nullptr, &attr_rng}, all,
                 /*cost_based_choice=*/true);
    Random no_cost_rng(options.arbitrary_seed);
    std::vector<std::string> shuffled = all;
    no_cost_rng.Shuffle(shuffled);
    const CategoryTree want_no_cost =
        RefBuild(RefContext{rows, stats, options, nullptr, &no_cost_rng},
                 shuffled, /*cost_based_choice=*/false);
    options.parallel.threads = 1;
    std::vector<std::pair<std::string, const Table*>> all_inputs = {
        {"row-backed", &rows}};
    all_inputs.insert(all_inputs.end(), inputs.begin(), inputs.end());
    for (const auto& [name, input] : all_inputs) {
      const std::string at = name + m;
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree cost,
          CostBasedCategorizer(&stats, options).Categorize(*input, nullptr));
      ExpectSameTree(want_cost, cost, "Cost-based " + at);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree attr_cost,
          AttrCostCategorizer(&stats, options).Categorize(*input, nullptr));
      ExpectSameTree(want_attr_cost, attr_cost, "Attr-cost " + at);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree no_cost,
          NoCostCategorizer(&stats, options).Categorize(*input, nullptr));
      ExpectSameTree(want_no_cost, no_cost, "No cost " + at);
    }
    // The serving call, at every thread count.
    for (const size_t threads : kThreadCounts) {
      options.parallel.threads = threads;
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree with_index,
          CostBasedCategorizer(&stats, options)
              .Categorize(shadowed.result, nullptr, &shadowed.index,
                          nullptr));
      ExpectSameTree(want_cost, with_index,
                     "Cost-based serving entry + index" + m + " threads=" +
                         std::to_string(threads));
    }
  }
}

// Over the hostile keys, every technique builds one tree from the
// row-backed result (read through a column-backed copy), from the
// same rows installed column-backed, and from the cold pipeline's
// selection over the installed table, and that tree is the per-node
// reference's.
TEST_F(CategorizeRunsTest, HostileKeysOrderAlikeOverEveryInput) {
  const Schema schema = HostileKeysSchema();
  Database db;
  ASSERT_TRUE(db.RegisterTable("runs", MakeHostileKeysTable(200, 17)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("runs"));
  const ShadowResult shadowed = RunPipeline(*installed, kHostileSql, {});
  const Table& selection = shadowed.result;
  const Table& rows = shadowed.rows;
  ASSERT_TRUE(selection.has_selection());
  ASSERT_TRUE(rows.has_rows());
  ASSERT_GT(rows.num_rows(), 160u);
  const Table backed = Table::FromColumnar(
      schema,
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(rows)));

  // The orders themselves, over the column-backed input.
  ExpectHostileOrders(backed, "column-backed");
  const size_t void_col = schema.ColumnIndex("void").value();
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const AttributeOrder by_void,
      AttributeOrder::Build(backed, void_col, nullptr, nullptr));
  EXPECT_EQ(by_void.num_keys(), 0u);
  EXPECT_TRUE(by_void.run(0).empty());

  ExpectHostileTreesAlike(
      rows, {{"column-backed", &backed}, {"selection", &selection}},
      shadowed);
}

// The same checks over a segment-store copy of the hostile table (without
// `void`: the store format has no kNull columns). A store-mapped int64 or
// double column carries the rank codes its writer derived, which must
// meet the same ties and extremes as the built shadow's.
TEST_F(CategorizeRunsTest, HostileKeysOrderAlikeOverAStoreCopy) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("autocat_runs_hostile_" + std::to_string(::getpid()) + ".store"))
          .string();
  const Table hostile = MakeHostileKeysTable(200, 17, /*with_void=*/false);
  {
    StoreWriterOptions options;
    AUTOCAT_ASSERT_OK_AND_MOVE(std::unique_ptr<StoreWriter> writer,
                               StoreWriter::Create(path, options));
    ASSERT_TRUE(writer->BeginTable("runs", hostile.schema()).ok());
    for (size_t r = 0; r < hostile.num_rows(); ++r) {
      ASSERT_TRUE(writer->Append(hostile.row(r)).ok());
    }
    ASSERT_TRUE(writer->FinishTable().ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  Database db;
  const Status attached = AttachStoreTables(path, &db);
  std::error_code ec;
  std::filesystem::remove(path, ec);  // the mapping keeps the data alive
  ASSERT_TRUE(attached.ok()) << attached.ToString();
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* stored, db.GetTable("runs"));
  const std::shared_ptr<const ColumnarTable>& mapped =
      stored->columnar_backing();
  ASSERT_NE(mapped, nullptr);
  const size_t price = stored->schema().ColumnIndex("price").value();
  ASSERT_EQ(mapped->column(price).codes.size(), hostile.num_rows())
      << "a store-mapped numeric column should carry rank codes";

  ExpectHostileOrders(*stored, "store-mapped");
  const ShadowResult shadowed = RunPipeline(*stored, kHostileSql, {});
  ASSERT_GT(shadowed.rows.num_rows(), 160u);
  ExpectHostileOrders(shadowed.result, "store-mapped selection");
  ExpectHostileTreesAlike(shadowed.rows,
                          {{"store-mapped selection", &shadowed.result}},
                          shadowed);
}

}  // namespace
}  // namespace autocat
