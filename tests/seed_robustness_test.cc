// Seed-robustness: the Section 6 shapes must not be artifacts of the
// default seed. Runs the reduced-scale studies under different seeds and
// asserts the (looser) directional claims.

#include <gtest/gtest.h>

#include <set>

#include "simgen/study.h"

namespace autocat {
namespace {

StudyConfig ConfigWithSeed(uint64_t seed) {
  StudyConfig config = DefaultStudyConfig();
  config.num_homes = 50000;
  config.num_workload_queries = 6000;
  config.num_subsets = 2;
  config.subset_size = 15;
  config.seed = seed;
  return config;
}

class SeedRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedRobustnessTest, SimulatedStudyShapesHold) {
  const auto env = StudyEnvironment::Create(ConfigWithSeed(GetParam()));
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const auto study = RunSimulatedStudy(env.value());
  ASSERT_TRUE(study.ok()) << study.status().ToString();

  const auto pooled = study->PooledPearson(SIZE_MAX);
  ASSERT_TRUE(pooled.ok());
  EXPECT_GT(pooled.value(), 0.3) << "seed " << GetParam();

  const double cb = study->MeanFractionalCost(Technique::kCostBased,
                                              SIZE_MAX);
  const double nc = study->MeanFractionalCost(Technique::kNoCost,
                                              SIZE_MAX);
  EXPECT_LT(cb, nc) << "seed " << GetParam();
  EXPECT_LT(cb, 0.5) << "seed " << GetParam();
}

TEST_P(SeedRobustnessTest, UserStudyShapesHold) {
  const auto env = StudyEnvironment::Create(ConfigWithSeed(GetParam()));
  ASSERT_TRUE(env.ok());
  const auto study = RunUserStudy(env.value());
  ASSERT_TRUE(study.ok()) << study.status().ToString();

  // Cost-based wins the ALL-cost comparison against No cost in aggregate.
  double cost_based_total = 0;
  double no_cost_total = 0;
  for (const UserRunRecord& record : study->records) {
    if (record.technique == Technique::kCostBased) {
      cost_based_total += record.actual_cost_all;
    } else if (record.technique == Technique::kNoCost) {
      no_cost_total += record.actual_cost_all;
    }
  }
  EXPECT_LT(cost_based_total, no_cost_total) << "seed " << GetParam();

  // No cost never wins the survey.
  const auto votes = study->SurveyVotes();
  const auto no_cost_it = votes.find(Technique::kNoCost);
  const size_t no_cost_votes =
      no_cost_it == votes.end() ? 0 : no_cost_it->second;
  for (const auto& [technique, count] : votes) {
    if (technique != Technique::kNoCost) {
      EXPECT_GE(count, no_cost_votes)
          << "seed " << GetParam() << ": No cost outpolled "
          << TechniqueToString(technique);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustnessTest,
                         ::testing::Values(7u, 991u, 31415u));

// The leaf-size guarantee at study scale: with the six retained
// attributes, (nearly) all leaves respect M. A leaf may legitimately
// exceed M only when every attribute has been consumed on its path.
TEST(LeafGuaranteeTest, TaskTreesRespectM) {
  const auto env = StudyEnvironment::Create(ConfigWithSeed(4242));
  ASSERT_TRUE(env.ok());
  const auto stats = WorkloadStats::Build(env->workload(), env->schema(),
                                          env->config().stats);
  ASSERT_TRUE(stats.ok());
  const auto tasks = PaperStudyTasks(env->geo());
  ASSERT_TRUE(tasks.ok());
  const size_t m = env->config().categorizer.max_tuples_per_category;
  for (const StudyTask& task : tasks.value()) {
    const auto result = env->ExecuteProfile(task.query);
    ASSERT_TRUE(result.ok());
    if (result->empty()) {
      continue;
    }
    const auto categorizer = MakeTechnique(Technique::kCostBased,
                                           &stats.value(), env->config(),
                                           1);
    const auto tree = categorizer->Categorize(result.value(), &task.query);
    ASSERT_TRUE(tree.ok());
    const std::vector<std::string>& level_attrs = tree->level_attributes();
    size_t oversized_leaves = 0;
    size_t leaves = 0;
    for (NodeId id = 0; id < static_cast<NodeId>(tree->num_nodes());
         ++id) {
      const CategoryNode& node = tree->node(id);
      if (!node.is_leaf()) {
        continue;
      }
      ++leaves;
      if (node.tset_size() <= m) {
        continue;
      }
      ++oversized_leaves;
      // An oversized leaf is only legitimate when none of the remaining
      // level attributes can split it: a single distinct value, or (for
      // numeric attributes) no workload split point strictly inside the
      // tuples' value range.
      for (size_t level = static_cast<size_t>(node.level);
           level < level_attrs.size(); ++level) {
        const std::string& attr = level_attrs[level];
        const size_t col = result->schema().ColumnIndex(attr).value();
        Value lo;
        Value hi;
        std::set<Value> distinct;
        for (size_t idx : node.tuples) {
          const Value v = result->CellValue(idx, col);
          if (v.is_null()) {
            continue;
          }
          distinct.insert(v);
          if (lo.is_null() || v < lo) lo = v;
          if (hi.is_null() || v > hi) hi = v;
        }
        if (distinct.size() <= 1) {
          continue;  // cannot split on this attribute
        }
        ASSERT_EQ(result->schema().column(col).kind, ColumnKind::kNumeric)
            << task.id << ": splittable categorical attribute " << attr
            << " left leaf " << id << " oversized";
        EXPECT_TRUE(stats
                        ->SplitPointsInRange(attr, lo.AsDouble(),
                                             hi.AsDouble())
                        .empty())
            << task.id << " leaf " << id << ": attribute " << attr
            << " had usable split points in ["
            << lo.ToString() << ", " << hi.ToString() << "]";
      }
    }
    // Degenerate leaves are a small minority.
    EXPECT_LT(oversized_leaves * 5, leaves) << task.id;
  }
}

}  // namespace
}  // namespace autocat
