// Tests for the exploration models of Figures 2 and 3, including the
// paper's worked Examples 3.1/4.1 (the 26-item exploration of Figure 1)
// and Example 3.2.

#include <gtest/gtest.h>

#include "explore/exploration.h"
#include "explore/metrics.h"
#include "test_util.h"

namespace autocat {
namespace {

using test::HomesTable;

// Builds the Figure 1 tree: ALL -> 3 neighborhood categories, the first
// ("Redmond, Bellevue") split into 3 price categories; the middle price
// category ("225K-250K") holds 20 tuples. The other branches hold a few
// tuples each.
struct Figure1 {
  Table table;
  CategoryTree tree;

  Figure1() : table(MakeTable()), tree(&table) {
    std::vector<size_t> rb;       // Redmond/Bellevue rows
    std::vector<size_t> is;       // Issaquah/Sammamish rows
    std::vector<size_t> seattle;  // Seattle rows
    const size_t nb = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const std::string n = table.CellValue(r, nb).string_value();
      if (n == "Redmond" || n == "Bellevue") {
        rb.push_back(r);
      } else if (n == "Issaquah" || n == "Sammamish") {
        is.push_back(r);
      } else {
        seattle.push_back(r);
      }
    }
    const NodeId rb_node = tree.AddChild(
        tree.root(),
        CategoryLabel::Categorical("neighborhood",
                                   {Value("Redmond"), Value("Bellevue")}),
        rb);
    tree.AddChild(tree.root(),
                  CategoryLabel::Categorical(
                      "neighborhood",
                      {Value("Issaquah"), Value("Sammamish")}),
                  is);
    tree.AddChild(
        tree.root(),
        CategoryLabel::Categorical("neighborhood", {Value("Seattle")}),
        seattle);
    tree.AppendLevelAttribute("neighborhood");

    // Split Redmond/Bellevue by price.
    std::vector<size_t> low;
    std::vector<size_t> mid;
    std::vector<size_t> high;
    const size_t price = 1;
    for (size_t r : rb) {
      const double p = table.CellValue(r, price).AsDouble();
      if (p < 225000) {
        low.push_back(r);
      } else if (p < 250000) {
        mid.push_back(r);
      } else {
        high.push_back(r);
      }
    }
    EXPECT_EQ(mid.size(), 20u);  // Example 4.1's premise
    tree.AddChild(rb_node,
                  CategoryLabel::Numeric("price", 200000, 225000), low);
    tree.AddChild(rb_node,
                  CategoryLabel::Numeric("price", 225000, 250000), mid);
    tree.AddChild(rb_node,
                  CategoryLabel::Numeric("price", 250000, 300000, true),
                  high);
    tree.AppendLevelAttribute("price");
  }

  static Table MakeTable() {
    std::vector<test::HomeRow> rows;
    // 20 Redmond/Bellevue homes in 225K-250K (the user's true range).
    for (int i = 0; i < 20; ++i) {
      rows.push_back(test::HomeRow{i % 2 == 0 ? "Redmond" : "Bellevue",
                                   226000 + i * 1000, 3});
    }
    // A few in the other price bands and neighborhoods.
    rows.push_back(test::HomeRow{"Redmond", 210000, 3});
    rows.push_back(test::HomeRow{"Bellevue", 285000, 4});
    rows.push_back(test::HomeRow{"Issaquah", 230000, 3});
    rows.push_back(test::HomeRow{"Sammamish", 240000, 2});
    rows.push_back(test::HomeRow{"Seattle", 235000, 3});
    rows.push_back(test::HomeRow{"Seattle", 260000, 5});
    return HomesTable(rows);
  }
};

SelectionProfile Example31User() {
  // The user of Examples 3.1/4.1: wants Redmond/Bellevue, 225K-250K.
  SelectionProfile user;
  user.Set("neighborhood", AttributeCondition::ValueSet(
                               {Value("Redmond"), Value("Bellevue")}));
  NumericRange price;
  price.lo = 226000;  // strictly inside (225K, 250K): overlaps only the
  price.hi = 249000;  // middle price category
  user.Set("price", AttributeCondition::Range(price));
  return user;
}

TEST(ExplorationTest, Example41CostIs26) {
  const Figure1 fig;
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kAll;
  const SimulatedExplorer explorer(options);
  const ExplorationResult run =
      explorer.Explore(fig.tree, Example31User());
  // 3 first-level labels + 3 price labels + 20 tuples = 26 (Example 4.1).
  EXPECT_EQ(run.labels_examined, 6u);
  EXPECT_EQ(run.tuples_examined, 20u);
  EXPECT_DOUBLE_EQ(run.items_examined, 26.0);
  EXPECT_EQ(run.relevant_found, 20u);
}

TEST(ExplorationTest, Example32OneScenarioStopsEarly) {
  const Figure1 fig;
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kOne;
  const SimulatedExplorer explorer(options);
  const ExplorationResult run =
      explorer.Explore(fig.tree, Example31User());
  // She examines 2 labels at level 1 (ignores the first? no: examines
  // "Redmond, Bellevue" first and explores it), then within it examines
  // the 200-225K label (ignored) and the 225-250K label (explored), then
  // reads tuples until the first relevant one — the very first.
  EXPECT_EQ(run.labels_examined, 3u);
  EXPECT_EQ(run.tuples_examined, 1u);
  EXPECT_DOUBLE_EQ(run.items_examined, 4.0);
  EXPECT_TRUE(run.found_any);
  EXPECT_EQ(run.relevant_found, 1u);
}

TEST(ExplorationTest, ShowTuplesWhenUserDoesNotConstrainSubattribute) {
  const Figure1 fig;
  // A user with no neighborhood condition browses the whole result at the
  // root (SHOWTUPLES).
  SelectionProfile user;
  NumericRange beds;
  beds.lo = 3;
  beds.hi = 3;
  user.Set("bedroomcount", AttributeCondition::Range(beds));
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kAll;
  const SimulatedExplorer explorer(options);
  const ExplorationResult run = explorer.Explore(fig.tree, user);
  EXPECT_EQ(run.labels_examined, 0u);
  EXPECT_EQ(run.tuples_examined, fig.table.num_rows());
}

TEST(ExplorationTest, UnconstrainedLabelAttributeIsAlwaysExplored) {
  const Figure1 fig;
  // Constrains neighborhood (so SHOWCAT at root) but not price: she must
  // open every price subcategory of the explored neighborhood node.
  SelectionProfile user;
  user.Set("neighborhood",
           AttributeCondition::ValueSet({Value("Redmond")}));
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kAll;
  const SimulatedExplorer explorer(options);
  const ExplorationResult run = explorer.Explore(fig.tree, user);
  // 3 level-1 labels; inside Redmond/Bellevue she has no price condition,
  // so Pw logic says SHOWTUPLES at that node (price unconstrained).
  EXPECT_EQ(run.labels_examined, 3u);
  EXPECT_EQ(run.tuples_examined, 22u);  // all of Redmond/Bellevue
}

TEST(ExplorationTest, LabelCostWeighting) {
  const Figure1 fig;
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kAll;
  options.label_cost = 0.5;
  const SimulatedExplorer explorer(options);
  const ExplorationResult run =
      explorer.Explore(fig.tree, Example31User());
  EXPECT_DOUBLE_EQ(run.items_examined, 0.5 * 6 + 20);
}

TEST(ExplorationTest, OneScenarioWithNoRelevantScansOn) {
  const Figure1 fig;
  SelectionProfile user;
  user.Set("neighborhood",
           AttributeCondition::ValueSet({Value("Nowhere")}));
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kOne;
  const SimulatedExplorer explorer(options);
  const ExplorationResult run = explorer.Explore(fig.tree, user);
  EXPECT_FALSE(run.found_any);
  EXPECT_EQ(run.relevant_found, 0u);
  // She examined all 3 level-1 labels and drilled nowhere.
  EXPECT_EQ(run.labels_examined, 3u);
  EXPECT_EQ(run.tuples_examined, 0u);
}

TEST(ExplorationTest, NoiseIsDeterministicGivenSeed) {
  const Figure1 fig;
  Random rng_a(42);
  Random rng_b(42);
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kAll;
  options.decision_noise = 0.3;
  options.rng = &rng_a;
  const ExplorationResult run_a =
      SimulatedExplorer(options).Explore(fig.tree, Example31User());
  options.rng = &rng_b;
  const ExplorationResult run_b =
      SimulatedExplorer(options).Explore(fig.tree, Example31User());
  EXPECT_DOUBLE_EQ(run_a.items_examined, run_b.items_examined);
  EXPECT_EQ(run_a.relevant_found, run_b.relevant_found);
}

TEST(ExplorationTest, ScenarioNames) {
  EXPECT_EQ(ScenarioToString(Scenario::kAll), "ALL");
  EXPECT_EQ(ScenarioToString(Scenario::kOne), "ONE");
}

TEST(ExplorationTraceTest, Example31Narrative) {
  // The trace of Example 3.1's exploration, as the paper narrates it.
  const Figure1 fig;
  std::vector<ExplorationEvent> events;
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kAll;
  options.trace = &events;
  const SimulatedExplorer explorer(options);
  explorer.Explore(fig.tree, Example31User());
  const std::string narrative = FormatTrace(fig.tree, events);
  const char* kExpected =
      "\"ALL\": explore using SHOWCAT\n"
      "examine \"neighborhood: Redmond, Bellevue\" -> explore using "
      "SHOWCAT\n"
      "examine \"price: 200K-225K\" -> ignore\n"
      "examine \"price: 225K-250K\" -> explore using SHOWTUPLES (20 "
      "tuples, 20 relevant)\n"
      "examine \"price: 250K-300K\" -> ignore\n"
      "examine \"neighborhood: Issaquah, Sammamish\" -> ignore\n"
      "examine \"neighborhood: Seattle\" -> ignore\n";
  EXPECT_EQ(narrative, kExpected);
}

TEST(ExplorationTraceTest, TraceCountsMatchResult) {
  const Figure1 fig;
  std::vector<ExplorationEvent> events;
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kAll;
  options.trace = &events;
  const SimulatedExplorer explorer(options);
  const ExplorationResult run = explorer.Explore(fig.tree, Example31User());
  size_t labels = 0;
  size_t tuples = 0;
  for (const ExplorationEvent& event : events) {
    if (event.kind == ExplorationEvent::Kind::kExamineLabel) {
      ++labels;
    }
    if (event.kind == ExplorationEvent::Kind::kShowTuples) {
      tuples += event.tuples_examined;
    }
  }
  EXPECT_EQ(labels, run.labels_examined);
  EXPECT_EQ(tuples, run.tuples_examined);
}

TEST(ExplorationTraceTest, NullTraceIsFine) {
  const Figure1 fig;
  SimulatedExplorer::Options options;
  options.scenario = Scenario::kOne;
  const SimulatedExplorer explorer(options);
  // No trace sink: must simply not record anything (and not crash).
  const ExplorationResult run = explorer.Explore(fig.tree, Example31User());
  EXPECT_TRUE(run.found_any);
}

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, FractionalCost) {
  ExplorationResult run;
  run.items_examined = 50;
  EXPECT_DOUBLE_EQ(FractionalCost(run, 200), 0.25);
  EXPECT_DOUBLE_EQ(FractionalCost(run, 0), 0);
}

TEST(MetricsTest, NormalizedCost) {
  ExplorationResult run;
  run.items_examined = 60;
  run.relevant_found = 12;
  EXPECT_DOUBLE_EQ(NormalizedCost(run), 5.0);
  run.relevant_found = 0;
  EXPECT_DOUBLE_EQ(NormalizedCost(run), 60.0);  // clamped denominator
}

TEST(MetricsTest, Means) {
  ExplorationResult a;
  a.items_examined = 10;
  a.relevant_found = 2;
  ExplorationResult b;
  b.items_examined = 30;
  b.relevant_found = 4;
  const std::vector<ExplorationResult> runs = {a, b};
  EXPECT_DOUBLE_EQ(MeanItemsExamined(runs), 20.0);
  EXPECT_DOUBLE_EQ(MeanRelevantFound(runs), 3.0);
  EXPECT_DOUBLE_EQ(MeanNormalizedCost(runs), (5.0 + 7.5) / 2);
  EXPECT_DOUBLE_EQ(MeanItemsExamined({}), 0.0);
}

}  // namespace
}  // namespace autocat
