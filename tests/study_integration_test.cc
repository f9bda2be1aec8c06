// Integration tests: the full Section 6 study pipeline at reduced scale.
// These assert the *shape* of the paper's findings, not absolute numbers.

#include "simgen/study.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/cost_model.h"
#include "core/probability.h"

namespace autocat {
namespace {

StudyConfig SmallConfig() {
  StudyConfig config = DefaultStudyConfig();
  // Half the default data scale: large enough for the Section 6 shapes to
  // be stable, small enough for a quick ctest run.
  config.num_homes = 60000;
  config.num_workload_queries = 8000;
  config.num_subsets = 2;
  config.subset_size = 25;
  return config;
}

const StudyEnvironment& SharedEnv() {
  static const StudyEnvironment* env = [] {
    auto created = StudyEnvironment::Create(SmallConfig());
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return new StudyEnvironment(std::move(created).value());
  }();
  return *env;
}

// The homes table as rows, gathered once: the row scans below read it
// instead of synthesizing every row of the column-backed table per scan.
const Table& SharedHomesRows() {
  static const Table* rows = new Table(
      TableView::All(SharedEnv().homes(), nullptr).Materialize());
  return *rows;
}

TEST(StudyEnvironmentTest, BuildsDataAndWorkload) {
  const StudyEnvironment& env = SharedEnv();
  EXPECT_EQ(env.homes().num_rows(), 60000u);
  // The homes table is its shadow: column-backed, no row copy kept.
  EXPECT_FALSE(env.homes().has_rows());
  EXPECT_FALSE(env.homes().has_selection());
  EXPECT_EQ(env.workload().size(), 8000u);
  EXPECT_TRUE(env.schema().HasColumn("neighborhood"));
}

TEST(StudyEnvironmentTest, ExecuteProfileFiltersRows) {
  const StudyEnvironment& env = SharedEnv();
  SelectionProfile profile;
  NumericRange beds;
  beds.lo = 3;
  beds.hi = 4;
  profile.Set("bedroomcount", AttributeCondition::Range(beds));
  const auto result = env.ExecuteProfile(profile);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_rows(), 0u);
  EXPECT_LT(result->num_rows(), env.homes().num_rows());
  // A selection over the homes table's shadow, as the service answers.
  EXPECT_TRUE(result->has_selection());
  EXPECT_EQ(result->columnar_backing(), env.homes().columnar_backing());
  const size_t beds_col = env.schema().ColumnIndex("bedroomcount").value();
  for (size_t r = 0; r < result->num_rows(); ++r) {
    const int64_t b = result->CellValue(r, beds_col).int64_value();
    EXPECT_GE(b, 3);
    EXPECT_LE(b, 4);
  }
}

// ExecuteProfile selects through the compiled kernels; its output must be
// exactly the MatchesRow scan's rows, in order, cell for cell.
void ExpectMatchesRowScan(const StudyEnvironment& env,
                          const SelectionProfile& profile,
                          const std::string& context) {
  const auto selected = env.ExecuteProfile(profile);
  ASSERT_TRUE(selected.ok())
      << context << ": " << selected.status().ToString();
  const Schema& schema = env.schema();
  const Table& homes = SharedHomesRows();
  const auto scanned = homes.SelectRows(homes.FilterIndices(
      [&](const Row& row) { return profile.MatchesRow(row, schema); }));
  ASSERT_TRUE(scanned.ok()) << context;
  ASSERT_EQ(selected->num_rows(), scanned->num_rows()) << context;
  ASSERT_EQ(selected->num_columns(), scanned->num_columns()) << context;
  for (size_t r = 0; r < scanned->num_rows(); ++r) {
    for (size_t c = 0; c < scanned->num_columns(); ++c) {
      const Value got = selected->CellValue(r, c);
      const Value& want = scanned->ValueAt(r, c);
      ASSERT_TRUE(got.type() == want.type() && got == want)
          << context << " differs at row " << r << " col " << c << ": "
          << got.ToString() << " vs " << want.ToString();
    }
  }
}

TEST(StudyEnvironmentTest, ExecuteProfileMatchesRowScan) {
  const StudyEnvironment& env = SharedEnv();
  ExpectMatchesRowScan(env, SelectionProfile(), "empty profile");
  // A NaN set member compiles as the kernels' match-all literal.
  SelectionProfile nan_member;
  nan_member.Set("bedroomcount",
                 AttributeCondition::ValueSet(
                     {Value(std::numeric_limits<double>::quiet_NaN())}));
  ExpectMatchesRowScan(env, nan_member, "NaN set member");
  size_t checked = 0;
  for (size_t i = 0; i < env.workload().size() && checked < 200; ++i) {
    const SelectionProfile& w = env.workload().entry(i).profile;
    if (w.Find("neighborhood") == nullptr) {
      continue;
    }
    ++checked;
    const std::string context = "workload query " + std::to_string(i);
    ExpectMatchesRowScan(env, w, context);
    const auto broadened = BroadenToRegion(w, env.geo());
    ASSERT_TRUE(broadened.ok())
        << context << ": " << broadened.status().ToString();
    ExpectMatchesRowScan(env, *broadened, context + " broadened");
  }
  EXPECT_EQ(checked, 200u);
}

TEST(BroadenTest, ExpandsToWholeRegionAndDropsOtherConditions) {
  const StudyEnvironment& env = SharedEnv();
  SelectionProfile w;
  w.Set("neighborhood",
        AttributeCondition::ValueSet({Value("Redmond"), Value("Bellevue")}));
  NumericRange price;
  price.lo = 200000;
  price.hi = 300000;
  w.Set("price", AttributeCondition::Range(price));
  const auto broadened = BroadenToRegion(w, env.geo());
  ASSERT_TRUE(broadened.ok());
  EXPECT_EQ(broadened->num_conditions(), 1u);
  const auto* nb = broadened->Find("neighborhood");
  ASSERT_NE(nb, nullptr);
  EXPECT_EQ(nb->values.size(), env.geo()
                                   .FindRegion("Seattle/Bellevue")
                                   .value()
                                   ->neighborhoods.size());
  // Broadening subsumes the original neighborhoods.
  EXPECT_TRUE(nb->values.count(Value("Redmond")) > 0);

  SelectionProfile no_neighborhood;
  no_neighborhood.Set("price", AttributeCondition::Range(price));
  EXPECT_FALSE(BroadenToRegion(no_neighborhood, env.geo()).ok());
}

TEST(TechniqueTest, FactoryAndNames) {
  const StudyEnvironment& env = SharedEnv();
  const auto stats = WorkloadStats::Build(env.workload(), env.schema(),
                                          env.config().stats);
  ASSERT_TRUE(stats.ok());
  for (Technique technique : kAllTechniques) {
    const auto categorizer =
        MakeTechnique(technique, &stats.value(), env.config(), 1);
    ASSERT_NE(categorizer, nullptr);
    EXPECT_EQ(categorizer->name(), TechniqueToString(technique));
  }
}

// The headline claims of Section 6.2, at small scale.
TEST(SimulatedStudyTest, ReproducesTheSectionSixShapes) {
  const StudyEnvironment& env = SharedEnv();
  const auto study = RunSimulatedStudy(env);
  ASSERT_TRUE(study.ok()) << study.status().ToString();

  const size_t per_technique =
      study->Select(Technique::kCostBased, SIZE_MAX).size();
  EXPECT_GT(per_technique, 20u);
  EXPECT_EQ(study->Select(Technique::kNoCost, SIZE_MAX).size(),
            per_technique);

  // (1) Estimated and actual cost positively correlated across the pooled
  // explorations (Figure 7's plot; individual-technique correlations are
  // noisier at this reduced scale — the full-scale reproduction lives in
  // bench/).
  const auto pooled = study->PooledPearson(SIZE_MAX);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_GT(pooled.value(), 0.5);
  const auto cost_based_pearson =
      study->Pearson(Technique::kCostBased, SIZE_MAX);
  ASSERT_TRUE(cost_based_pearson.ok());
  EXPECT_GT(cost_based_pearson.value(), 0.0);

  // (2) The best-fit slope of actual-vs-estimated is within a small
  // factor of 1 (the paper found 1.1).
  const auto slope = study->PooledFitSlope();
  ASSERT_TRUE(slope.ok());
  EXPECT_GT(slope.value(), 0.3);
  EXPECT_LT(slope.value(), 3.0);

  // (3) Cost-based categorization examines a small fraction of the result
  // set and beats No-cost on fractional cost.
  const double cost_based_frac =
      study->MeanFractionalCost(Technique::kCostBased, SIZE_MAX);
  const double no_cost_frac =
      study->MeanFractionalCost(Technique::kNoCost, SIZE_MAX);
  EXPECT_LT(cost_based_frac, 0.35);
  EXPECT_LT(cost_based_frac, no_cost_frac);
}

TEST(UserStudyTest, ReproducesTheSectionSixPointThreeShapes) {
  const StudyEnvironment& env = SharedEnv();
  const auto study = RunUserStudy(env);
  ASSERT_TRUE(study.ok()) << study.status().ToString();
  // Full factorial: 11 personas x 4 tasks x 3 techniques.
  EXPECT_EQ(study->records.size(), 11u * 4u * 3u);
  EXPECT_EQ(study->task_result_sizes.size(), 4u);

  // The paper's rotation design is embedded: each subject has exactly one
  // rotation run per task, and every task-technique rotation cell has at
  // least 2 subjects.
  for (const char* task : {"Task 1", "Task 2", "Task 3", "Task 4"}) {
    for (Technique technique : kAllTechniques) {
      const auto cell = study->Select(task, technique);
      EXPECT_EQ(cell.size(), 11u);
      size_t rotation = 0;
      for (const UserRunRecord* run : cell) {
        if (run->paper_assignment) {
          ++rotation;
        }
      }
      EXPECT_GE(rotation, 2u)
          << task << " / " << TechniqueToString(technique);
    }
  }

  // Per-user correlations mostly positive (Table 2's shape).
  size_t positive = 0;
  size_t computed = 0;
  for (int u = 1; u <= 11; ++u) {
    const auto r = study->UserPearson("U" + std::to_string(u));
    if (r.ok()) {
      ++computed;
      if (r.value() > 0) {
        ++positive;
      }
    }
  }
  EXPECT_GE(computed, 9u);
  EXPECT_GE(positive * 3, computed * 2);  // at least two thirds positive

  // Cost-based normalized cost is far below the result-set size
  // (Table 3's shape) on every task.
  for (const char* task : {"Task 1", "Task 2", "Task 3", "Task 4"}) {
    const auto runs = study->Select(task, Technique::kCostBased);
    ASSERT_FALSE(runs.empty());
    double normalized = 0;
    for (const UserRunRecord* run : runs) {
      normalized += run->actual_cost_all /
                    std::max<double>(1.0, run->relevant_found);
    }
    normalized /= runs.size();
    const double result_size = study->task_result_sizes.at(task);
    EXPECT_LT(normalized, result_size / 5.0) << task;
  }

  // The survey (Table 4): cost-based is the top vote-getter.
  const auto votes = study->SurveyVotes();
  size_t total_votes = 0;
  for (const auto& [technique, count] : votes) {
    (void)technique;
    total_votes += count;
  }
  EXPECT_EQ(total_votes, 11u);
  const auto it = votes.find(Technique::kCostBased);
  ASSERT_NE(it, votes.end());
  for (const auto& [technique, count] : votes) {
    if (technique != Technique::kCostBased) {
      EXPECT_GE(it->second, count)
          << TechniqueToString(technique) << " outpolled cost-based";
    }
  }
}

TEST(UserStudyTest, OneScenarioCostsAreBelowAllScenarioCosts) {
  const StudyEnvironment& env = SharedEnv();
  const auto study = RunUserStudy(env);
  ASSERT_TRUE(study.ok());
  size_t below = 0;
  for (const UserRunRecord& record : study->records) {
    if (record.actual_cost_one <= record.actual_cost_all) {
      ++below;
    }
  }
  // ONE stops at the first relevant tuple; allowing noise, nearly all runs
  // should cost no more than their ALL counterpart.
  EXPECT_GE(below * 10, study->records.size() * 9);
}

}  // namespace
}  // namespace autocat
