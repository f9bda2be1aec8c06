// Robustness and end-to-end property tests: fuzzed SQL input, generated
// query round-trips, the find-all-relevant exploration invariant, and the
// drill-down/tset consistency invariant on generated trees.

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "core/categorizer.h"
#include "core/export.h"
#include "exec/executor.h"
#include "explore/exploration.h"
#include "simgen/study.h"
#include "sql/parser.h"
#include "test_util.h"

namespace autocat {
namespace {

// ------------------------------------------------------------ parser fuzz

// Random byte strings must never crash the lexer/parser — they either
// parse or return a ParseError.
class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.Uniform(0, 80));
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input += static_cast<char>(rng.Uniform(32, 126));
    }
    const auto result = ParseQuery(input);
    if (result.ok()) {
      // Whatever parsed must unparse and reparse.
      EXPECT_TRUE(ParseQuery(result->ToSql()).ok()) << input;
    }
  }
}

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  Random rng(static_cast<uint64_t>(GetParam()) * 104729);
  static const char* kTokens[] = {
      "SELECT", "FROM",  "WHERE", "AND",   "OR",     "IN",     "NOT",
      "BETWEEN", "IS",   "NULL",  "*",     ",",      "(",      ")",
      "=",      "<>",    "<",     "<=",    ">",      ">=",     "price",
      "homes",  "'x'",   "42",    "3.5",   ";",      "ORDER",  "BY"};
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.Uniform(1, 25));
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input += kTokens[rng.Uniform(0, std::size(kTokens) - 1)];
      input += ' ';
    }
    (void)ParseQuery(input);  // must not crash; outcome is irrelevant
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(1, 5));

// The synthetic workload generator's SQL must round-trip through parse ->
// ToSql -> parse with identical normalized profiles.
TEST(GeneratedSqlRoundTripTest, ProfilesSurviveUnparsing) {
  const Geography geo = Geography::UnitedStates();
  const auto schema = HomesGenerator::ListPropertySchema();
  ASSERT_TRUE(schema.ok());
  WorkloadGeneratorConfig config;
  config.num_queries = 400;
  const std::vector<std::string> sqls =
      WorkloadGenerator(&geo, config).GenerateSql();
  for (const std::string& sql : sqls) {
    const auto query = ParseQuery(sql);
    ASSERT_TRUE(query.ok()) << sql;
    const auto reparsed = ParseQuery(query->ToSql());
    ASSERT_TRUE(reparsed.ok()) << query->ToSql();
    const auto profile_a =
        SelectionProfile::FromQuery(query.value(), schema.value());
    const auto profile_b =
        SelectionProfile::FromQuery(reparsed.value(), schema.value());
    ASSERT_TRUE(profile_a.ok());
    ASSERT_TRUE(profile_b.ok());
    EXPECT_EQ(profile_a->ToString(), profile_b->ToString()) << sql;
  }
}

// ------------------------------------------- exploration completeness

// Noise-free ALL exploration must find EVERY relevant tuple, whatever the
// tree: any category containing a relevant tuple has labels consistent
// with the user's conditions all the way down, so it is never ignored.
class FindsAllRelevantTest : public ::testing::TestWithParam<int> {};

TEST_P(FindsAllRelevantTest, AllScenarioIsComplete) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Random rng(seed);
  // Random data.
  std::vector<test::HomeRow> rows;
  const char* kNeighborhoods[] = {"a", "b", "c", "d", "e"};
  const char* kTypes[] = {"Single Family", "Condo", "Townhouse"};
  for (int i = 0; i < 400; ++i) {
    rows.push_back(test::HomeRow{kNeighborhoods[rng.Uniform(0, 4)],
                                 rng.Uniform(1, 9) * 1000,
                                 rng.Uniform(1, 6),
                                 kTypes[rng.Uniform(0, 2)]});
  }
  const Table table = test::HomesTable(rows);
  // Random workload to drive the tree shapes.
  std::vector<std::string> sqls;
  for (int i = 0; i < 40; ++i) {
    const int64_t lo = rng.Uniform(1, 7) * 1000;
    sqls.push_back("SELECT * FROM homes WHERE neighborhood = '" +
                   std::string(kNeighborhoods[rng.Uniform(0, 4)]) +
                   "' AND price BETWEEN " + std::to_string(lo) + " AND " +
                   std::to_string(lo + 2000));
  }
  const WorkloadStats stats = test::StatsFromSql(sqls);

  // Random user.
  SelectionProfile user;
  std::set<Value> wanted = {Value(kNeighborhoods[rng.Uniform(0, 4)]),
                            Value(kNeighborhoods[rng.Uniform(0, 4)])};
  user.Set("neighborhood", AttributeCondition::ValueSet(wanted));
  NumericRange band;
  band.lo = static_cast<double>(rng.Uniform(1, 5) * 1000);
  band.hi = band.lo + static_cast<double>(rng.Uniform(1, 4) * 1000);
  user.Set("price", AttributeCondition::Range(band));

  size_t truly_relevant = 0;
  Row scratch;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    truly_relevant +=
        user.MatchesRow(table.RowRef(r, &scratch), table.schema()) ? 1 : 0;
  }

  CategorizerOptions options;
  options.max_tuples_per_category = 15;
  options.attribute_usage_threshold = 0.0;
  options.candidate_attributes = {"neighborhood", "price", "bedroomcount",
                                  "propertytype"};
  options.arbitrary_seed = seed;
  SimulatedExplorer::Options explore_options;
  explore_options.scenario = Scenario::kAll;
  const SimulatedExplorer explorer(explore_options);

  const CostBasedCategorizer cost_based(&stats, options);
  const AttrCostCategorizer attr_cost(&stats, options);
  const NoCostCategorizer no_cost(&stats, options);
  const Categorizer* categorizers[] = {&cost_based, &attr_cost, &no_cost};
  for (const Categorizer* categorizer : categorizers) {
    const auto tree = categorizer->Categorize(table, nullptr);
    ASSERT_TRUE(tree.ok()) << categorizer->name();
    const ExplorationResult run = explorer.Explore(tree.value(), user);
    EXPECT_EQ(run.relevant_found, truly_relevant)
        << categorizer->name() << " seed " << seed;
    // And she never examines more items than the flat list + labels.
    EXPECT_LE(run.tuples_examined, table.num_rows());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindsAllRelevantTest,
                         ::testing::Range(1, 11));

// ------------------------------------------------- drill-down consistency

// For trees built by all three techniques over generated data, the
// drill-down SQL of every node must select exactly tset(C).
TEST(DrillDownConsistencyTest, SqlMatchesTsetOnGeneratedTrees) {
  StudyConfig config = DefaultStudyConfig();
  config.num_homes = 8000;
  config.num_workload_queries = 1500;
  const auto env = StudyEnvironment::Create(config);
  ASSERT_TRUE(env.ok());
  const auto stats = WorkloadStats::Build(env->workload(), env->schema(),
                                          config.stats);
  ASSERT_TRUE(stats.ok());
  const auto tasks = PaperStudyTasks(env->geo());
  ASSERT_TRUE(tasks.ok());
  const StudyTask& task = tasks->at(1);
  const auto result = env->ExecuteProfile(task.query);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->num_rows(), 0u);

  Database db;
  db.PutTable("r", result.value());  // drill into the result relation

  for (Technique technique : kAllTechniques) {
    const auto categorizer =
        MakeTechnique(technique, &stats.value(), config, 5);
    const auto tree = categorizer->Categorize(result.value(), &task.query);
    ASSERT_TRUE(tree.ok());
    // Sample nodes across the tree (checking all is O(nodes * rows)).
    for (NodeId id = 0; id < static_cast<NodeId>(tree->num_nodes());
         id += 7) {
      const auto sql = DrillDownSql(tree.value(), id, "r");
      ASSERT_TRUE(sql.ok());
      const auto drilled = ExecuteSql(sql.value(), db);
      ASSERT_TRUE(drilled.ok()) << sql.value();
      EXPECT_EQ(drilled->num_rows(), tree->node(id).tset_size())
          << TechniqueToString(technique) << ": " << sql.value();
    }
  }
}

// ------------------------------------------------------ executor algebra

TEST(ExecutorAlgebraTest, FilterThenProjectEqualsProjectOfFiltered) {
  StudyConfig config = DefaultStudyConfig();
  config.num_homes = 2000;
  config.num_workload_queries = 10;
  const auto env = StudyEnvironment::Create(config);
  ASSERT_TRUE(env.ok());
  Database db;
  db.PutTable("homes", env->homes());
  const auto narrow = ExecuteSql(
      "SELECT neighborhood, price FROM homes WHERE price <= 250000", db);
  ASSERT_TRUE(narrow.ok());
  const auto wide =
      ExecuteSql("SELECT * FROM homes WHERE price <= 250000", db);
  ASSERT_TRUE(wide.ok());
  const size_t nb = wide->schema().ColumnIndex("neighborhood").value();
  const size_t price = wide->schema().ColumnIndex("price").value();
  ASSERT_EQ(narrow->num_rows(), wide->num_rows());
  for (size_t r = 0; r < narrow->num_rows(); ++r) {
    EXPECT_EQ(narrow->CellValue(r, 0), wide->CellValue(r, nb));
    EXPECT_EQ(narrow->CellValue(r, 1), wide->CellValue(r, price));
  }
}

TEST(ExecutorAlgebraTest, ConjunctionEqualsSequentialFilters) {
  StudyConfig config = DefaultStudyConfig();
  config.num_homes = 2000;
  config.num_workload_queries = 10;
  const auto env = StudyEnvironment::Create(config);
  ASSERT_TRUE(env.ok());
  Database db;
  db.PutTable("homes", env->homes());
  const auto both = ExecuteSql(
      "SELECT * FROM homes WHERE price <= 300000 AND bedroomcount >= 3",
      db);
  ASSERT_TRUE(both.ok());
  const auto first =
      ExecuteSql("SELECT * FROM homes WHERE price <= 300000", db);
  ASSERT_TRUE(first.ok());
  Database db2;
  db2.PutTable("step", first.value());
  const auto second =
      ExecuteSql("SELECT * FROM step WHERE bedroomcount >= 3", db2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(both->num_rows(), second->num_rows());
}

}  // namespace
}  // namespace autocat
