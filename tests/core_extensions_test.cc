// Tests for the extension modules: the path-aware (correlation) estimator
// of Section 5.2's ongoing work, workload-driven tuple ranking, tree
// export (drill-down SQL + JSON), and the goodness-driven automatic
// bucket count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/categorizer.h"
#include "core/correlation.h"
#include "core/cost_model.h"
#include "core/export.h"
#include "core/partition.h"
#include "core/probability.h"
#include "core/ranking.h"
#include "exec/executor.h"
#include "explore/exploration.h"
#include "test_util.h"

namespace autocat {
namespace {

using test::HomesTable;

// A correlated workload: users who want neighborhood 'a' search cheap
// (price <= 3000); users who want 'b' search expensive (price >= 6000).
std::vector<std::string> CorrelatedWorkloadSql() {
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    sqls.push_back(
        "SELECT * FROM homes WHERE neighborhood = 'a' AND price BETWEEN "
        "1000 AND 3000");
    sqls.push_back(
        "SELECT * FROM homes WHERE neighborhood = 'b' AND price BETWEEN "
        "6000 AND 9000");
  }
  return sqls;
}

struct CorrelatedFixture {
  Schema schema = test::HomesSchema();
  Workload workload =
      Workload::Parse(CorrelatedWorkloadSql(), test::HomesSchema(), nullptr);
  Result<WorkloadStats> stats = WorkloadStats::Build(
      workload, test::HomesSchema(), test::StatsOptions());
  Table table = HomesTable({{"a", 1500, 2},
                            {"a", 2500, 3},
                            {"a", 7000, 4},
                            {"b", 2000, 2},
                            {"b", 6500, 3},
                            {"b", 8000, 4}});

  // Tree: neighborhood level, then one price split at 5000 under each.
  CategoryTree MakeTree() const {
    CategoryTree tree(&table);
    const NodeId a = tree.AddChild(
        tree.root(), CategoryLabel::Categorical("neighborhood", {Value("a")}),
        {0, 1, 2});
    const NodeId b = tree.AddChild(
        tree.root(), CategoryLabel::Categorical("neighborhood", {Value("b")}),
        {3, 4, 5});
    tree.AppendLevelAttribute("neighborhood");
    tree.AddChild(a, CategoryLabel::Numeric("price", 1000, 5000), {0, 1});
    tree.AddChild(a, CategoryLabel::Numeric("price", 5000, 9000, true),
                  {2});
    tree.AddChild(b, CategoryLabel::Numeric("price", 1000, 5000), {3});
    tree.AddChild(b, CategoryLabel::Numeric("price", 5000, 9000, true),
                  {4, 5});
    tree.AppendLevelAttribute("price");
    return tree;
  }
};

TEST(PathAwareEstimatorTest, Level1ReducesToIndependence) {
  CorrelatedFixture fixture;
  ASSERT_TRUE(fixture.stats.ok());
  const ProbabilityEstimator independence(&fixture.stats.value(),
                                          &fixture.schema);
  const PathAwareProbabilityEstimator path_aware(&fixture.workload,
                                                 &independence);
  const CategoryTree tree = fixture.MakeTree();
  const NodeId a = tree.node(tree.root()).children[0];
  EXPECT_NEAR(path_aware.ExplorationProbability(tree, a),
              independence.ExplorationProbability(tree.node(a).label),
              1e-12);
  EXPECT_DOUBLE_EQ(path_aware.ExplorationProbability(tree, tree.root()),
                   1.0);
}

TEST(PathAwareEstimatorTest, ConditioningCapturesCorrelation) {
  CorrelatedFixture fixture;
  ASSERT_TRUE(fixture.stats.ok());
  const ProbabilityEstimator independence(&fixture.stats.value(),
                                          &fixture.schema);
  const PathAwareProbabilityEstimator path_aware(&fixture.workload,
                                                 &independence);
  const CategoryTree tree = fixture.MakeTree();
  const NodeId a = tree.node(tree.root()).children[0];
  const NodeId a_cheap = tree.node(a).children[0];
  const NodeId a_pricey = tree.node(a).children[1];

  // Independence: half the price conditions overlap each bucket -> 0.5.
  EXPECT_NEAR(
      independence.ExplorationProbability(tree.node(a_cheap).label), 0.5,
      1e-12);
  // Path-aware: users compatible with 'neighborhood: a' all search cheap.
  EXPECT_NEAR(path_aware.ExplorationProbability(tree, a_cheap), 1.0,
              1e-12);
  EXPECT_NEAR(path_aware.ExplorationProbability(tree, a_pricey), 0.0,
              1e-12);
}

TEST(PathAwareEstimatorTest, CostIsCloserToGroundTruthThanIndependence) {
  CorrelatedFixture fixture;
  ASSERT_TRUE(fixture.stats.ok());
  const ProbabilityEstimator independence(&fixture.stats.value(),
                                          &fixture.schema);
  const PathAwareProbabilityEstimator path_aware(&fixture.workload,
                                                 &independence);
  const CostModel independent_model(&independence, CostModelParams{});
  const CategoryTree tree = fixture.MakeTree();

  // Ground truth: simulate the two user populations of the workload and
  // average their actual exploration costs.
  SelectionProfile user_a;
  user_a.Set("neighborhood", AttributeCondition::ValueSet({Value("a")}));
  NumericRange cheap;
  cheap.lo = 1000;
  cheap.hi = 3000;
  user_a.Set("price", AttributeCondition::Range(cheap));
  SelectionProfile user_b;
  user_b.Set("neighborhood", AttributeCondition::ValueSet({Value("b")}));
  NumericRange pricey;
  pricey.lo = 6000;
  pricey.hi = 9000;
  user_b.Set("price", AttributeCondition::Range(pricey));

  SimulatedExplorer::Options all_options;
  all_options.scenario = Scenario::kAll;
  const SimulatedExplorer all_explorer(all_options);
  const double truth_all =
      (all_explorer.Explore(tree, user_a).items_examined +
       all_explorer.Explore(tree, user_b).items_examined) /
      2;

  // The independence model underestimates here: it assumes half the users
  // entering 'neighborhood: a' skip the cheap price bucket, but in this
  // workload every a-user wants it. Path-conditioning recovers the exact
  // expectation.
  const double independent_all = independent_model.CostAll(tree);
  const double path_all = path_aware.CostAll(tree, CostModelParams{});
  EXPECT_NEAR(path_all, truth_all, 1e-9);
  EXPECT_LT(std::abs(path_all - truth_all),
            std::abs(independent_all - truth_all));

  // ONE scenario: path-conditioning improves the estimate but does not
  // make it exact — sibling explore/ignore events are still treated as
  // independent (a known limitation; see correlation.h).
  SimulatedExplorer::Options one_options;
  one_options.scenario = Scenario::kOne;
  const SimulatedExplorer one_explorer(one_options);
  const double truth_one =
      (one_explorer.Explore(tree, user_a).items_examined +
       one_explorer.Explore(tree, user_b).items_examined) /
      2;
  const double independent_one = independent_model.CostOne(tree);
  const double path_one = path_aware.CostOne(tree, CostModelParams{});
  EXPECT_LT(std::abs(path_one - truth_one),
            std::abs(independent_one - truth_one));
}

TEST(PathAwareEstimatorTest, FallsBackWhenNoConditionalEvidence) {
  // Workload with conditions on neighborhood only: once conditioned on a
  // neighborhood, no query constrains price, so the estimator must fall
  // back to the independence estimate (0 here too, but exercised).
  const std::vector<std::string> sqls = {
      "SELECT * FROM homes WHERE neighborhood = 'a'",
      "SELECT * FROM homes WHERE neighborhood = 'b'",
  };
  const Schema schema = test::HomesSchema();
  const Workload workload = Workload::Parse(sqls, schema, nullptr);
  const auto stats =
      WorkloadStats::Build(workload, schema, test::StatsOptions());
  ASSERT_TRUE(stats.ok());
  const ProbabilityEstimator independence(&stats.value(), &schema);
  const PathAwareProbabilityEstimator path_aware(&workload, &independence);
  CorrelatedFixture fixture;
  const CategoryTree tree = fixture.MakeTree();
  const NodeId a = tree.node(tree.root()).children[0];
  const NodeId a_cheap = tree.node(a).children[0];
  EXPECT_DOUBLE_EQ(
      path_aware.ExplorationProbability(tree, a_cheap),
      independence.ExplorationProbability(tree.node(a_cheap).label));
}

// --------------------------------------------------------------- ranking

TEST(RankingTest, ScoresFollowWorkloadPopularity) {
  const WorkloadStats stats = test::StatsFromSql({
      "SELECT * FROM homes WHERE neighborhood = 'popular'",
      "SELECT * FROM homes WHERE neighborhood = 'popular'",
      "SELECT * FROM homes WHERE neighborhood = 'popular'",
      "SELECT * FROM homes WHERE neighborhood = 'rare'",
  });
  const Table table = HomesTable({{"rare", 100, 1}, {"popular", 100, 1}});
  const auto rare_score = TupleScore(table, 0, {"neighborhood"}, stats);
  const auto popular_score = TupleScore(table, 1, {"neighborhood"}, stats);
  ASSERT_TRUE(rare_score.ok());
  ASSERT_TRUE(popular_score.ok());
  EXPECT_DOUBLE_EQ(rare_score.value(), 0.25);
  EXPECT_DOUBLE_EQ(popular_score.value(), 0.75);
  EXPECT_FALSE(TupleScore(table, 0, {"bogus"}, stats).ok());
  EXPECT_FALSE(TupleScore(table, 99, {"neighborhood"}, stats).ok());
}

TEST(RankingTest, RankTuplesDescendingStable) {
  const WorkloadStats stats = test::StatsFromSql({
      "SELECT * FROM homes WHERE neighborhood = 'x'",
      "SELECT * FROM homes WHERE neighborhood = 'x'",
      "SELECT * FROM homes WHERE neighborhood = 'y'",
  });
  const Table table = HomesTable(
      {{"y", 1, 1}, {"x", 2, 2}, {"z", 3, 3}, {"x", 4, 4}});
  const auto ranked =
      RankTuples(table, {0, 1, 2, 3}, {"neighborhood"}, stats);
  ASSERT_TRUE(ranked.ok());
  // x (score 2/3) first, stable between rows 1 and 3; then y; then z.
  EXPECT_EQ(ranked.value(), (std::vector<size_t>{1, 3, 0, 2}));
}

TEST(RankingTest, ApplyLeafRankingPreservesSetsAndStructure) {
  const WorkloadStats stats = test::StatsFromSql({
      "SELECT * FROM homes WHERE neighborhood = 'a' AND price BETWEEN "
      "1000 AND 2000",
      "SELECT * FROM homes WHERE neighborhood = 'a'",
      "SELECT * FROM homes WHERE price BETWEEN 1000 AND 3000",
  });
  const Table table = HomesTable(
      {{"b", 9000, 1}, {"a", 1500, 2}, {"a", 9000, 3}, {"b", 1500, 4}});
  CategoryTree tree(&table);
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood",
                                           {Value("a"), Value("b")}),
                {0, 1, 2, 3});
  tree.AppendLevelAttribute("neighborhood");
  CategoryTree ranked = tree;
  ASSERT_TRUE(ApplyLeafRanking(ranked, {"neighborhood", "price"}, stats)
                  .ok());
  // Same sets, same structure.
  ASSERT_EQ(ranked.num_nodes(), tree.num_nodes());
  const auto& before = tree.node(1).tuples;
  const auto& after = ranked.node(1).tuples;
  EXPECT_EQ(std::set<size_t>(before.begin(), before.end()),
            std::set<size_t>(after.begin(), after.end()));
  // Row 1 ('a', 1500) scores highest: neighborhood 'a' occurs in 2/2
  // neighborhood conditions, price 1500 in 2/2 price conditions.
  EXPECT_EQ(after.front(), 1u);
  // Row 0 ('b', 9000) scores zero and lands last.
  EXPECT_EQ(after.back(), 0u);
}

// ---------------------------------------------------------------- export

TEST(ExportTest, PathPredicateConjoinsLabels) {
  CorrelatedFixture fixture;
  const CategoryTree tree = fixture.MakeTree();
  EXPECT_EQ(PathPredicateSql(tree, tree.root()).value(), "");
  const NodeId a = tree.node(tree.root()).children[0];
  EXPECT_EQ(PathPredicateSql(tree, a).value(), "neighborhood = 'a'");
  const NodeId a_cheap = tree.node(a).children[0];
  EXPECT_EQ(PathPredicateSql(tree, a_cheap).value(),
            "neighborhood = 'a' AND price >= 1000 AND price < 5000");
  EXPECT_FALSE(PathPredicateSql(tree, 999).ok());
}

TEST(ExportTest, DrillDownSqlReturnsExactlyTset) {
  CorrelatedFixture fixture;
  const CategoryTree tree = fixture.MakeTree();
  Database db;
  db.PutTable("homes", fixture.table);
  // The drill-down query of every node must return exactly tset(C).
  for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
    const auto sql = DrillDownSql(tree, id, "homes");
    ASSERT_TRUE(sql.ok());
    const auto result = ExecuteSql(sql.value(), db);
    ASSERT_TRUE(result.ok()) << sql.value();
    EXPECT_EQ(result->num_rows(), tree.node(id).tset_size())
        << sql.value();
  }
}

TEST(ExportTest, DrillDownSqlComposesWithOriginalWhere) {
  CorrelatedFixture fixture;
  const CategoryTree tree = fixture.MakeTree();
  const NodeId a = tree.node(tree.root()).children[0];
  const auto sql =
      DrillDownSql(tree, a, "homes", "bedroomcount >= 3");
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(sql.value(),
            "SELECT * FROM homes WHERE (bedroomcount >= 3) AND "
            "neighborhood = 'a'");
  EXPECT_FALSE(DrillDownSql(tree, a, "").ok());
}

TEST(ExportTest, TreeToJsonStructure) {
  CorrelatedFixture fixture;
  const CategoryTree tree = fixture.MakeTree();
  const std::string json = TreeToJson(tree);
  EXPECT_NE(json.find("\"label\":\"ALL\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":6"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"neighborhood: a\""), std::string::npos);
  EXPECT_NE(json.find("\"attribute\":\"price\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportTest, JsonWithModelCarriesEstimates) {
  CorrelatedFixture fixture;
  ASSERT_TRUE(fixture.stats.ok());
  const CategoryTree tree = fixture.MakeTree();
  const ProbabilityEstimator estimator(&fixture.stats.value(),
                                       &fixture.schema);
  const CostModel model(&estimator, CostModelParams{});
  const std::string json = TreeToJson(tree, &model);
  EXPECT_NE(json.find("\"p\":"), std::string::npos);
  EXPECT_NE(json.find("\"pw\":"), std::string::npos);
  EXPECT_NE(json.find("\"cost_all\":"), std::string::npos);
  // Without a model the estimate keys are absent.
  EXPECT_EQ(TreeToJson(tree).find("\"p\":"), std::string::npos);
}

TEST(RefinedProfileTest, ConjoinsPathAndReproducesTset) {
  CorrelatedFixture fixture;
  const CategoryTree tree = fixture.MakeTree();
  // Original query: price in [1000, 9000] (matches every row).
  SelectionProfile original;
  NumericRange wide;
  wide.lo = 1000;
  wide.hi = 9000;
  original.Set("price", AttributeCondition::Range(wide));

  for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
    const auto refined = RefinedProfile(tree, id, original);
    ASSERT_TRUE(refined.ok());
    size_t matched = 0;
    Row scratch;
    for (size_t r = 0; r < fixture.table.num_rows(); ++r) {
      matched += refined->MatchesRow(fixture.table.RowRef(r, &scratch),
                                     fixture.table.schema())
                     ? 1
                     : 0;
    }
    EXPECT_EQ(matched, tree.node(id).tset_size()) << "node " << id;
  }
  EXPECT_FALSE(RefinedProfile(tree, 999, original).ok());
}

TEST(RefinedProfileTest, IntersectsExistingConditions) {
  CorrelatedFixture fixture;
  const CategoryTree tree = fixture.MakeTree();
  // Original already constrains neighborhood to {a, b}; drilling into
  // 'neighborhood: a' must intersect down to {a}.
  SelectionProfile original;
  original.Set("neighborhood",
               AttributeCondition::ValueSet({Value("a"), Value("b")}));
  const NodeId a = tree.node(tree.root()).children[0];
  const auto refined = RefinedProfile(tree, a, original);
  ASSERT_TRUE(refined.ok());
  const AttributeCondition* nb = refined->Find("neighborhood");
  ASSERT_NE(nb, nullptr);
  EXPECT_EQ(nb->values, (std::set<Value>{Value("a")}));
  // Drilling further into a price bucket intersects the range too.
  const NodeId a_cheap = tree.node(a).children[0];
  SelectionProfile with_price = original;
  NumericRange narrow;
  narrow.lo = 2000;
  narrow.hi = 9000;
  with_price.Set("price", AttributeCondition::Range(narrow));
  const auto deeper = RefinedProfile(tree, a_cheap, with_price);
  ASSERT_TRUE(deeper.ok());
  const AttributeCondition* price = deeper->Find("price");
  ASSERT_TRUE(price->is_range());
  EXPECT_DOUBLE_EQ(price->range.lo, 2000);  // max(2000, 1000)
  EXPECT_DOUBLE_EQ(price->range.hi, 5000);  // min(9000, bucket hi)
}

TEST(ExportTest, JsonEscapesSpecialCharacters) {
  const Table table = HomesTable({{"has \"quote\"", 1, 1}});
  CategoryTree tree(&table);
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood",
                                           {Value("has \"quote\"")}),
                {0});
  const std::string json = TreeToJson(tree);
  EXPECT_NE(json.find("has \\\"quote\\\""), std::string::npos);
}

// ----------------------------------------------------------- auto buckets

TEST(AutoBucketsTest, GoodnessFloorLimitsSplitPoints) {
  // Goodness: 5000 -> 10, 2000 -> 1. With a 0.3 floor only 5000
  // qualifies; with floor 0 both do.
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    sqls.push_back(
        "SELECT * FROM homes WHERE price BETWEEN 5000 AND 9000");
  }
  sqls.push_back("SELECT * FROM homes WHERE price BETWEEN 2000 AND 9000");
  const WorkloadStats stats = test::StatsFromSql(sqls);
  const Table table = HomesTable({{"a", 1000, 1},
                                  {"a", 2500, 1},
                                  {"a", 4000, 1},
                                  {"a", 6000, 1},
                                  {"a", 9000, 1}});
  std::vector<size_t> all = {0, 1, 2, 3, 4};
  const Table backed = test::ColumnBackedCopy(table);

  CategorizerOptions with_floor;
  with_floor.auto_numeric_buckets = true;
  with_floor.goodness_fraction = 0.3;
  const auto narrow =
      PartitionNumeric(backed, all, "price", stats, with_floor, nullptr);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->size(), 2u);  // single split at 5000

  CategorizerOptions no_floor;
  no_floor.auto_numeric_buckets = true;
  no_floor.goodness_fraction = 0.0;
  const auto wide =
      PartitionNumeric(backed, all, "price", stats, no_floor, nullptr);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->size(), 3u);  // splits at 5000 and 2000
}

TEST(AutoBucketsTest, FlowsThroughCategorizerOptions) {
  std::vector<std::string> sqls;
  for (int i = 0; i < 10; ++i) {
    sqls.push_back(
        "SELECT * FROM homes WHERE price BETWEEN 3000 AND 6000");
  }
  const WorkloadStats stats = test::StatsFromSql(sqls);
  Random rng(3);
  std::vector<test::HomeRow> rows;
  for (int i = 0; i < 120; ++i) {
    rows.push_back(test::HomeRow{"a", rng.Uniform(0, 9) * 1000, 1});
  }
  const Table table = HomesTable(rows);
  CategorizerOptions options;
  options.max_tuples_per_category = 10;
  options.attribute_usage_threshold = 0.0;
  options.candidate_attributes = {"price"};
  options.auto_numeric_buckets = true;
  const CostBasedCategorizer categorizer(&stats, options);
  const auto tree = categorizer.Categorize(table, nullptr);
  ASSERT_TRUE(tree.ok());
  // Only the 3000/6000 split points carry goodness, so level 1 has at
  // most 3 buckets.
  EXPECT_LE(tree->node(tree->root()).children.size(), 3u);
  EXPECT_GE(tree->node(tree->root()).children.size(), 2u);
}

}  // namespace
}  // namespace autocat
