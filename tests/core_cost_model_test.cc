// Tests for the probability estimator (Section 4.2) and the cost models
// (Equations 1 and 2).

#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/probability.h"
#include "test_util.h"

namespace autocat {
namespace {

using test::HomesTable;
using test::StatsFromSql;

Schema TestSchema() { return test::HomesSchema(); }

// ------------------------------------------------------------ probabilities

TEST(ProbabilityTest, ShowTuplesFromUsage) {
  // 2 of 4 queries constrain price -> Pw for SA=price is 1 - 0.5 = 0.5.
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE price BETWEEN 1000 AND 2000",
      "SELECT * FROM homes WHERE price BETWEEN 3000 AND 4000",
      "SELECT * FROM homes WHERE neighborhood = 'a'",
      "SELECT * FROM homes WHERE neighborhood = 'b'",
  });
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  EXPECT_DOUBLE_EQ(estimator.ShowTuplesProbability("price"), 0.5);
  EXPECT_DOUBLE_EQ(estimator.ShowTuplesProbability("neighborhood"), 0.5);
  EXPECT_DOUBLE_EQ(estimator.ShowTuplesProbability("bedroomcount"), 1.0);
}

TEST(ProbabilityTest, EmptyWorkloadMeansAlwaysBrowse) {
  const Workload empty;
  const auto stats =
      WorkloadStats::Build(empty, TestSchema(), test::StatsOptions());
  ASSERT_TRUE(stats.ok());
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats.value(), &schema);
  EXPECT_DOUBLE_EQ(estimator.ShowTuplesProbability("price"), 1.0);
  EXPECT_DOUBLE_EQ(
      estimator.ExplorationProbability(
          CategoryLabel::Categorical("neighborhood", {Value("a")})),
      0.0);
}

TEST(ProbabilityTest, ExplorationProbabilityCategorical) {
  // occ(Bellevue)=2, occ(Redmond)=1, NAttr(neighborhood)=3.
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE neighborhood IN ('Bellevue', 'Redmond')",
      "SELECT * FROM homes WHERE neighborhood = 'Bellevue'",
      "SELECT * FROM homes WHERE neighborhood = 'Seattle'",
      "SELECT * FROM homes WHERE price <= 1000",
  });
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  EXPECT_DOUBLE_EQ(estimator.ExplorationProbability(
                       CategoryLabel::Categorical("neighborhood",
                                                  {Value("Bellevue")})),
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(estimator.ExplorationProbability(
                       CategoryLabel::Categorical("neighborhood",
                                                  {Value("Redmond")})),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(estimator.ExplorationProbability(
                       CategoryLabel::Categorical("neighborhood",
                                                  {Value("Nowhere")})),
                   0.0);
}

TEST(ProbabilityTest, ExplorationProbabilityNumeric) {
  // Ranges on price: [1000,3000], [2000,5000], [7000,9000];
  // NAttr(price)=3.
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE price BETWEEN 1000 AND 3000",
      "SELECT * FROM homes WHERE price BETWEEN 2000 AND 5000",
      "SELECT * FROM homes WHERE price BETWEEN 7000 AND 9000",
  });
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  // Bucket [2000, 3000) overlaps the first two ranges.
  EXPECT_DOUBLE_EQ(estimator.ExplorationProbability(
                       CategoryLabel::Numeric("price", 2000, 3000)),
                   2.0 / 3.0);
  // Bucket [5500, 6500) overlaps nothing.
  EXPECT_DOUBLE_EQ(estimator.ExplorationProbability(
                       CategoryLabel::Numeric("price", 5500, 6500)),
                   0.0);
  // The whole domain overlaps everything.
  EXPECT_DOUBLE_EQ(estimator.ExplorationProbability(
                       CategoryLabel::Numeric("price", 0, 10000)),
                   1.0);
}

TEST(ProbabilityTest, ProbabilitiesStayInUnitInterval) {
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE price BETWEEN 1000 AND 3000",
      "SELECT * FROM homes WHERE neighborhood = 'a'",
  });
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  Random rng(3);
  for (int i = 0; i < 100; ++i) {
    const double lo = static_cast<double>(rng.Uniform(0, 10000));
    const double p = estimator.ExplorationProbability(CategoryLabel::Numeric(
        "price", lo, lo + static_cast<double>(rng.Uniform(0, 5000))));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ---------------------------------------------------------------- CostAll

// Workload giving round probabilities:
//   NAttr(neighborhood) = 2 of N=4 -> Pw(SA=neighborhood) = 0.5
//   occ(a) = 2, occ(b) = 1 -> P(n=a) = 1, P(n=b) = 0.5
std::vector<std::string> RoundWorkload() {
  return {
      "SELECT * FROM homes WHERE neighborhood IN ('a', 'b')",
      "SELECT * FROM homes WHERE neighborhood = 'a'",
      "SELECT * FROM homes WHERE price <= 5000",
      "SELECT * FROM homes WHERE price BETWEEN 1000 AND 2000",
  };
}

TEST(CostModelTest, LeafCostIsTupleCount) {
  const WorkloadStats stats = StatsFromSql(RoundWorkload());
  const Table table = HomesTable({{"a", 1, 1}, {"a", 2, 2}, {"b", 3, 3}});
  const CategoryTree tree(&table);
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel model(&estimator, CostModelParams{});
  EXPECT_DOUBLE_EQ(model.CostAll(tree), 3.0);
  EXPECT_DOUBLE_EQ(model.CostOne(tree), 0.5 * 3.0);
}

TEST(CostModelTest, OneLevelHandComputed) {
  const WorkloadStats stats = StatsFromSql(RoundWorkload());
  const Table table = HomesTable(
      {{"a", 1, 1}, {"a", 2, 2}, {"b", 3, 3}, {"b", 4, 4}, {"b", 5, 5}});
  CategoryTree tree(&table);
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood", {Value("a")}),
                {0, 1});
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood", {Value("b")}),
                {2, 3, 4});
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel model(&estimator, CostModelParams{/*k=*/1.0,
                                                    /*frac=*/0.5});
  // Pw(root) = 1 - NAttr(neighborhood)/N = 0.5.
  EXPECT_DOUBLE_EQ(model.NodeShowTuplesProbability(tree, tree.root()), 0.5);
  const NodeId a = tree.node(tree.root()).children[0];
  const NodeId b = tree.node(tree.root()).children[1];
  EXPECT_DOUBLE_EQ(model.NodeExplorationProbability(tree, a), 1.0);
  EXPECT_DOUBLE_EQ(model.NodeExplorationProbability(tree, b), 0.5);
  // Equation 1: 0.5*5 + 0.5*(1*2 + 1*2 + 0.5*3) = 2.5 + 0.5*5.5 = 5.25.
  EXPECT_DOUBLE_EQ(model.CostAll(tree), 5.25);
  // Equation 2: Pw*frac*5 + (1-Pw) * [P(a)*(K*1 + 0.5*2)
  //   + (1-P(a))*P(b)*(K*2 + 0.5*3)]
  // = 0.5*2.5 + 0.5*[1*(1+1) + 0] = 1.25 + 1 = 2.25.
  EXPECT_DOUBLE_EQ(model.CostOne(tree), 2.25);
}

TEST(CostModelTest, KScalesLabelCost) {
  const WorkloadStats stats = StatsFromSql(RoundWorkload());
  const Table table = HomesTable({{"a", 1, 1}, {"b", 2, 2}});
  CategoryTree tree(&table);
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood", {Value("a")}),
                {0});
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood", {Value("b")}),
                {1});
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel cheap(&estimator, CostModelParams{0.1, 0.5});
  const CostModel pricey(&estimator, CostModelParams{10.0, 0.5});
  EXPECT_LT(cheap.CostAll(tree), pricey.CostAll(tree));
}

TEST(CostModelTest, OneLevelHelperAgreesWithTreeEvaluation) {
  const WorkloadStats stats = StatsFromSql(RoundWorkload());
  const Table table = HomesTable(
      {{"a", 1, 1}, {"a", 2, 2}, {"b", 3, 3}, {"b", 4, 4}, {"b", 5, 5}});
  CategoryTree tree(&table);
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood", {Value("a")}),
                {0, 1});
  tree.AddChild(tree.root(),
                CategoryLabel::Categorical("neighborhood", {Value("b")}),
                {2, 3, 4});
  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel model(&estimator, CostModelParams{});
  const double from_tree = model.CostAll(tree);
  const double from_helper = model.OneLevelCostAll(
      model.NodeShowTuplesProbability(tree, tree.root()), 5,
      {1.0, 0.5}, {2, 3});
  EXPECT_DOUBLE_EQ(from_tree, from_helper);
}

// Independent reference implementations of Equations 1 and 2 used to
// cross-check the production recursion on randomized trees.
double ReferenceCostAll(const CostModel& model, const CategoryTree& tree,
                        NodeId id) {
  const CategoryNode& node = tree.node(id);
  if (node.is_leaf()) {
    return static_cast<double>(node.tset_size());
  }
  const double pw = model.NodeShowTuplesProbability(tree, id);
  double sum = model.params().k * static_cast<double>(node.children.size());
  for (NodeId child : node.children) {
    sum += model.NodeExplorationProbability(tree, child) *
           ReferenceCostAll(model, tree, child);
  }
  return pw * static_cast<double>(node.tset_size()) + (1 - pw) * sum;
}

double ReferenceCostOne(const CostModel& model, const CategoryTree& tree,
                        NodeId id) {
  const CategoryNode& node = tree.node(id);
  if (node.is_leaf()) {
    return model.params().frac * static_cast<double>(node.tset_size());
  }
  const double pw = model.NodeShowTuplesProbability(tree, id);
  double sum = 0;
  double none = 1;
  for (size_t i = 0; i < node.children.size(); ++i) {
    const double p =
        model.NodeExplorationProbability(tree, node.children[i]);
    sum += none * p *
           (model.params().k * static_cast<double>(i + 1) +
            ReferenceCostOne(model, tree, node.children[i]));
    none *= 1 - p;
  }
  return pw * model.params().frac * static_cast<double>(node.tset_size()) +
         (1 - pw) * sum;
}

class CostModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CostModelPropertyTest, MatchesReferenceOnRandomTrees) {
  Random rng(static_cast<uint64_t>(GetParam()));
  // Random homes data.
  std::vector<test::HomeRow> rows;
  const char* kNeighborhoods[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 60; ++i) {
    rows.push_back(test::HomeRow{
        kNeighborhoods[rng.Uniform(0, 3)],
        rng.Uniform(0, 9) * 1000,
        rng.Uniform(1, 5),
    });
  }
  const Table table = HomesTable(rows);
  // Random workload.
  std::vector<std::string> sqls;
  for (int i = 0; i < 20; ++i) {
    if (rng.Bernoulli(0.5)) {
      const int64_t lo = rng.Uniform(0, 8) * 1000;
      sqls.push_back("SELECT * FROM homes WHERE price BETWEEN " +
                     std::to_string(lo) + " AND " +
                     std::to_string(lo + rng.Uniform(1, 4) * 1000));
    } else {
      sqls.push_back(
          std::string("SELECT * FROM homes WHERE neighborhood = '") +
          kNeighborhoods[rng.Uniform(0, 3)] + "'");
    }
  }
  const WorkloadStats stats = StatsFromSql(sqls);

  // Random 2-level tree: neighborhood then price buckets.
  CategoryTree tree(&table);
  const auto nb_col = table.schema().ColumnIndex("neighborhood").value();
  const auto price_col = table.schema().ColumnIndex("price").value();
  for (const char* n : kNeighborhoods) {
    std::vector<size_t> members;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (table.CellValue(r, nb_col) == Value(n)) {
        members.push_back(r);
      }
    }
    if (members.empty()) {
      continue;
    }
    const NodeId node = tree.AddChild(
        tree.root(), CategoryLabel::Categorical("neighborhood", {Value(n)}),
        members);
    // Split into two price buckets at a random point.
    const double split = static_cast<double>(rng.Uniform(1, 8)) * 1000;
    std::vector<size_t> low;
    std::vector<size_t> high;
    for (size_t r : tree.node(node).tuples) {
      (table.CellValue(r, price_col).AsDouble() < split ? low : high)
          .push_back(r);
    }
    if (!low.empty() && !high.empty()) {
      tree.AddChild(node, CategoryLabel::Numeric("price", 0, split), low);
      tree.AddChild(node,
                    CategoryLabel::Numeric("price", split, 9000, true),
                    high);
    }
  }

  const Schema schema = TestSchema();
  const ProbabilityEstimator estimator(&stats, &schema);
  const CostModel model(&estimator,
                        CostModelParams{rng.UniformReal(0.2, 2.0),
                                        rng.UniformReal(0.1, 0.9)});
  EXPECT_NEAR(model.CostAll(tree),
              ReferenceCostAll(model, tree, tree.root()), 1e-9);
  EXPECT_NEAR(model.CostOne(tree),
              ReferenceCostOne(model, tree, tree.root()), 1e-9);
  // The ONE cost can never exceed the ALL cost under equal parameters
  // when frac <= 1.
  EXPECT_LE(model.CostOne(tree), model.CostAll(tree) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelPropertyTest,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace autocat
