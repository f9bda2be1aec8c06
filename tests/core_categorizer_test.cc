// Tests for the three categorization techniques (Figure 6 and the
// Section 6.1 baselines) and the enumerative validation tools.

#include "core/categorizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "common/random.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/enumerate.h"
#include "core/probability.h"
#include "storage/columnar.h"
#include "test_util.h"

namespace autocat {
namespace {

using test::HomesTable;
using test::StatsFromSql;

// A workload in which neighborhood and price are popular, bedrooms less
// so, and propertytype never used.
std::vector<std::string> RichWorkload() {
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    sqls.push_back(
        std::string("SELECT * FROM homes WHERE neighborhood = '") +
        (i % 2 == 0 ? "a" : "b") + "'");
  }
  for (int i = 0; i < 8; ++i) {
    const int lo = 1000 * (1 + (i % 3));
    sqls.push_back("SELECT * FROM homes WHERE price BETWEEN " +
                   std::to_string(lo) + " AND " +
                   std::to_string(lo + 2000));
  }
  for (int i = 0; i < 3; ++i) {
    sqls.push_back("SELECT * FROM homes WHERE bedroomcount BETWEEN 2 AND "
                   "3");
  }
  return sqls;
}

Table BigTable(size_t rows) {
  Random rng(5);
  std::vector<test::HomeRow> data;
  const char* kNeighborhoods[] = {"a", "b", "c"};
  const char* kTypes[] = {"Single Family", "Condo"};
  for (size_t i = 0; i < rows; ++i) {
    data.push_back(test::HomeRow{
        kNeighborhoods[rng.Uniform(0, 2)],
        rng.Uniform(1, 8) * 1000,
        rng.Uniform(1, 5),
        kTypes[rng.Uniform(0, 1)],
    });
  }
  return HomesTable(data);
}

// Structural invariants of every permissible tree (Section 3.1).
void ExpectValidTree(const CategoryTree& tree) {
  // 1:1 level/attribute association and no attribute reuse.
  std::set<std::string> used(tree.level_attributes().begin(),
                             tree.level_attributes().end());
  EXPECT_EQ(used.size(), tree.level_attributes().size())
      << "an attribute was reused across levels";

  const size_t nb_col =
      tree.result().schema().ColumnIndex("neighborhood").value();
  (void)nb_col;
  for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
    const CategoryNode& node = tree.node(id);
    if (!node.is_root()) {
      // Level l nodes carry the level-l categorizing attribute.
      ASSERT_LE(static_cast<size_t>(node.level),
                tree.level_attributes().size());
      EXPECT_EQ(ToLower(node.label.attribute()),
                ToLower(tree.level_attributes()[node.level - 1]));
      // Every tuple satisfies its label.
      const size_t col = tree.result()
                             .schema()
                             .ColumnIndex(node.label.attribute())
                             .value();
      for (size_t idx : node.tuples) {
        EXPECT_TRUE(node.label.Matches(tree.result().CellValue(idx, col)));
      }
      // tset(C) is a subset of the parent's tset.
      const CategoryNode& parent = tree.node(node.parent);
      const std::set<size_t> parent_set(parent.tuples.begin(),
                                        parent.tuples.end());
      for (size_t idx : node.tuples) {
        EXPECT_TRUE(parent_set.count(idx) > 0);
      }
    }
    // Children are mutually disjoint.
    std::set<size_t> seen;
    for (NodeId child : node.children) {
      for (size_t idx : tree.node(child).tuples) {
        EXPECT_TRUE(seen.insert(idx).second)
            << "tuple in two sibling categories";
      }
    }
  }
}

CategorizerOptions SmallOptions() {
  CategorizerOptions options;
  options.max_tuples_per_category = 10;
  options.attribute_usage_threshold = 0.1;
  return options;
}

TEST(CostBasedCategorizerTest, RetainedAttributesHonorThreshold) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  CategorizerOptions options;
  options.attribute_usage_threshold = 0.2;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto retained =
      categorizer.RetainedAttributes(test::HomesSchema());
  // neighborhood: 10/21, price: 8/21 retained; bedroomcount 3/21 and
  // propertytype 0/21 eliminated.
  EXPECT_EQ(retained,
            (std::vector<std::string>{"neighborhood", "price"}));
}

TEST(CostBasedCategorizerTest, BuildsValidTreeWithLeafGuarantee) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(300);
  const CostBasedCategorizer categorizer(&stats, SmallOptions());
  const auto tree = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ExpectValidTree(tree.value());
  EXPECT_GT(tree->num_categories(), 0u);
  // Enough attributes were available to push every leaf under M... except
  // where a single attribute value alone exceeds M and no attributes
  // remain; with 3 usable attributes over 300 rows this succeeds.
  EXPECT_LE(tree->max_leaf_tset(), 10u * 8u);
  EXPECT_GE(tree->max_depth(), 2);
}

TEST(CostBasedCategorizerTest, SmallResultStaysUnpartitioned) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(5);
  CategorizerOptions options = SmallOptions();
  options.max_tuples_per_category = 10;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto tree = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_categories(), 0u);  // root alone
}

TEST(CostBasedCategorizerTest, MaxLevelsCapsDepth) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(400);
  CategorizerOptions options = SmallOptions();
  options.max_levels = 1;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto tree = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->max_depth(), 1);
}

TEST(CostBasedCategorizerTest, EmptyWorkloadStillWorks) {
  const auto stats = WorkloadStats::Build(Workload(), test::HomesSchema(),
                                          test::StatsOptions());
  ASSERT_TRUE(stats.ok());
  const Table table = BigTable(100);
  CategorizerOptions options = SmallOptions();
  options.attribute_usage_threshold = 0.0;  // retain all despite no usage
  const CostBasedCategorizer categorizer(&stats.value(), options);
  const auto tree = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(tree.ok());
  ExpectValidTree(tree.value());
}

TEST(CostBasedCategorizerTest, AllAttributesEliminatedYieldsRootOnly) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  CategorizerOptions options;
  options.attribute_usage_threshold = 0.99;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto tree = categorizer.Categorize(BigTable(100), nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_categories(), 0u);
}

TEST(CostBasedCategorizerTest, UnknownCandidateAttributeErrors) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  CategorizerOptions options = SmallOptions();
  options.candidate_attributes = {"neighborhood", "bogus"};
  options.attribute_usage_threshold = 0.0;
  const CostBasedCategorizer categorizer(&stats, options);
  EXPECT_FALSE(categorizer.Categorize(BigTable(50), nullptr).ok());
}

TEST(CostBasedCategorizerTest, GreedyLevelChoiceIsOneLevelOptimal) {
  // With max_levels = 1, the chosen attribute must beat every fixed
  // single-attribute alternative under the estimated CostAll.
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(300);
  CategorizerOptions options = SmallOptions();
  options.max_levels = 1;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto chosen = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(chosen.ok());
  const Schema schema = test::HomesSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel model(&estimator, options.cost_params);
  const double chosen_cost = model.CostAll(chosen.value());
  for (const std::string& attr :
       {std::string("neighborhood"), std::string("price"),
        std::string("bedroomcount")}) {
    const auto fixed = CategorizeWithFixedAttributeOrder(
        table, {attr}, &stats, options, nullptr);
    ASSERT_TRUE(fixed.ok());
    EXPECT_LE(chosen_cost, model.CostAll(fixed.value()) + 1e-9)
        << "attribute " << attr << " beats the greedy choice";
  }
}

TEST(BaselineCategorizersTest, ProduceValidTrees) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(300);
  CategorizerOptions options = SmallOptions();
  options.candidate_attributes = {"neighborhood", "price", "bedroomcount"};

  const AttrCostCategorizer attr_cost(&stats, options);
  const auto attr_tree = attr_cost.Categorize(table, nullptr);
  ASSERT_TRUE(attr_tree.ok());
  ExpectValidTree(attr_tree.value());

  const NoCostCategorizer no_cost(&stats, options);
  const auto no_tree = no_cost.Categorize(table, nullptr);
  ASSERT_TRUE(no_tree.ok());
  ExpectValidTree(no_tree.value());
}

TEST(BaselineCategorizersTest, NoCostDeterministicPerSeed) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(200);
  CategorizerOptions options = SmallOptions();
  options.candidate_attributes = {"neighborhood", "price", "bedroomcount"};
  options.arbitrary_seed = 7;
  const NoCostCategorizer first(&stats, options);
  const NoCostCategorizer second(&stats, options);
  const auto tree_a = first.Categorize(table, nullptr);
  const auto tree_b = second.Categorize(table, nullptr);
  ASSERT_TRUE(tree_a.ok());
  ASSERT_TRUE(tree_b.ok());
  EXPECT_EQ(tree_a->num_nodes(), tree_b->num_nodes());
  EXPECT_EQ(tree_a->level_attributes(), tree_b->level_attributes());
}

TEST(BaselineCategorizersTest, EquiWidthBucketsUseIntervalMultiplier) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(300);
  CategorizerOptions options = SmallOptions();
  options.candidate_attributes = {"price"};
  options.equiwidth_interval_multiplier = 5.0;  // width 5 * 1000
  const AttrCostCategorizer categorizer(&stats, options);
  const auto tree = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(tree.ok());
  for (NodeId child : tree->node(tree->root()).children) {
    const CategoryLabel& label = tree->node(child).label;
    EXPECT_DOUBLE_EQ(std::fmod(label.lo(), 5000.0), 0.0)
        << label.ToString();
  }
}

TEST(BaselineCategorizersTest, NamesAreStable) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  EXPECT_EQ(CostBasedCategorizer(&stats, {}).name(), "Cost-based");
  EXPECT_EQ(AttrCostCategorizer(&stats, {}).name(), "Attr-cost");
  EXPECT_EQ(NoCostCategorizer(&stats, {}).name(), "No cost");
}

TEST(FixedOrderTest, HonorsGivenOrder) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(300);
  const auto tree = CategorizeWithFixedAttributeOrder(
      table, {"price", "neighborhood"}, &stats, SmallOptions(), nullptr);
  ASSERT_TRUE(tree.ok());
  ASSERT_GE(tree->level_attributes().size(), 1u);
  EXPECT_EQ(tree->level_attributes()[0], "price");
  ExpectValidTree(tree.value());
}

// --------------------------------------------------------------- enumerate

TEST(EnumerateTest, OneLevelOptimalNeverWorseThanHeuristic) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(120);
  CategorizerOptions options = SmallOptions();
  options.max_levels = 1;
  const std::vector<std::string> candidates = {"neighborhood", "price",
                                               "bedroomcount"};
  const auto best = EnumerateBestOneLevel(table, candidates, &stats,
                                          options, nullptr);
  ASSERT_TRUE(best.ok()) << best.status().ToString();

  options.candidate_attributes = candidates;
  options.attribute_usage_threshold = 0.0;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto heuristic = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(heuristic.ok());
  const Schema schema = test::HomesSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel model(&estimator, options.cost_params);
  EXPECT_LE(best->cost, model.CostAll(heuristic.value()) + 1e-9);
}

TEST(EnumerateTest, AttributeOrderSearchCoversGreedy) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(150);
  CategorizerOptions options = SmallOptions();
  const std::vector<std::string> candidates = {"neighborhood", "price"};
  const auto best = EnumerateBestAttributeOrder(table, candidates, &stats,
                                                options, nullptr);
  ASSERT_TRUE(best.ok());

  options.candidate_attributes = candidates;
  options.attribute_usage_threshold = 0.0;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto greedy = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(greedy.ok());
  const Schema schema = test::HomesSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel model(&estimator, options.cost_params);
  EXPECT_LE(best->cost, model.CostAll(greedy.value()) + 1e-9);
}

// A numeric candidate's range comes from its non-NULL cells; a column of
// only NULLs has none, over a builder result and a column-backed one
// alike. One non-NULL cell is enough.
TEST(EnumerateTest, AllNullNumericCandidateIsNotFound) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const CategorizerOptions options;
  Table rows(test::HomesSchema());
  for (const char* n : {"a", "b", "a"}) {
    ASSERT_TRUE(
        rows.AppendRow({Value(n), Value(), Value(int64_t{2}), Value("Condo")})
            .ok());
  }
  const Table backed = Table::FromColumnar(
      rows.schema(),
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(rows)));
  const Table* const results[] = {&rows, &backed};
  for (const Table* result : results) {
    EXPECT_EQ(EnumerateBestOneLevel(*result, {"price"}, &stats, options,
                                    nullptr)
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
  ASSERT_TRUE(rows.AppendRow({Value("c"), Value(int64_t{3000}),
                              Value(int64_t{2}), Value("Condo")})
                  .ok());
  EXPECT_TRUE(
      EnumerateBestOneLevel(rows, {"price"}, &stats, options, nullptr).ok());
}

TEST(EnumerateTest, InputValidation) {
  const WorkloadStats stats = StatsFromSql(RichWorkload());
  const Table table = BigTable(20);
  CategorizerOptions options;
  EXPECT_FALSE(
      EnumerateBestOneLevel(table, {}, &stats, options, nullptr).ok());
  EXPECT_FALSE(EnumerateBestAttributeOrder(
                   table,
                   {"a1", "a2", "a3", "a4", "a5", "a6", "a7"},
                   &stats, options, nullptr)
                   .ok());
}

}  // namespace
}  // namespace autocat
