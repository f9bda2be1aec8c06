// Tests for the synthetic-data substrate: geography, generators, personas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "simgen/geo.h"
#include "workload/counts.h"
#include "simgen/homes_generator.h"
#include "simgen/user_simulator.h"
#include "simgen/workload_generator.h"

namespace autocat {
namespace {

// --------------------------------------------------------------- geography

TEST(GeographyTest, CatalogHasThePapersRegions) {
  const Geography geo = Geography::UnitedStates();
  EXPECT_GE(geo.num_regions(), 10u);
  EXPECT_TRUE(geo.FindRegion("Seattle/Bellevue").ok());
  EXPECT_TRUE(geo.FindRegion("Bay Area - Penin/SanJose").ok());
  EXPECT_TRUE(geo.FindRegion("NYC - Manhattan, Bronx").ok());
  EXPECT_FALSE(geo.FindRegion("Atlantis").ok());
  // Task 3 needs at least 15 NYC neighborhoods.
  EXPECT_GE(geo.FindRegion("NYC - Manhattan, Bronx")
                .value()
                ->neighborhoods.size(),
            15u);
}

TEST(GeographyTest, NeighborhoodsAreGloballyUnique) {
  const Geography geo = Geography::UnitedStates();
  const auto all = geo.AllNeighborhoods();
  const std::set<std::string> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
}

TEST(GeographyTest, NeighborhoodLookupFindsOwner) {
  const Geography geo = Geography::UnitedStates();
  const auto region = geo.RegionOfNeighborhood("Redmond");
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region.value()->name, "Seattle/Bellevue");
  EXPECT_TRUE(geo.RegionOfNeighborhood("redmond").ok());  // insensitive
  EXPECT_FALSE(geo.RegionOfNeighborhood("Narnia").ok());
}

TEST(GeographyTest, PopularitiesArePositive) {
  // The Geography must outlive the loop: regions() returns a reference
  // into the object, and iterating `UnitedStates().regions()` directly
  // leaves the temporary destroyed before the body runs (caught by ASan).
  const Geography geo = Geography::UnitedStates();
  for (const Region& region : geo.regions()) {
    EXPECT_GT(region.popularity, 0) << region.name;
    EXPECT_GT(region.price_center, 0) << region.name;
    EXPECT_FALSE(region.neighborhoods.empty()) << region.name;
  }
}

// -------------------------------------------------------------- generators

TEST(HomesGeneratorTest, GeneratesRequestedRows) {
  const Geography geo = Geography::UnitedStates();
  HomesGeneratorConfig config;
  config.num_rows = 2000;
  const HomesGenerator generator(&geo, config);
  const auto table = generator.Generate();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2000u);
  EXPECT_EQ(table->num_columns(), 10u);
}

TEST(HomesGeneratorTest, DeterministicPerSeed) {
  const Geography geo = Geography::UnitedStates();
  HomesGeneratorConfig config;
  config.num_rows = 300;
  const auto a = HomesGenerator(&geo, config).Generate();
  const auto b = HomesGenerator(&geo, config).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      ASSERT_EQ(a->CellValue(r, c), b->CellValue(r, c));
    }
  }
  config.seed += 1;
  const auto other = HomesGenerator(&geo, config).Generate();
  ASSERT_TRUE(other.ok());
  bool any_difference = false;
  for (size_t r = 0; r < other->num_rows() && !any_difference; ++r) {
    any_difference = !(other->CellValue(r, 4) == a->CellValue(r, 4));
  }
  EXPECT_TRUE(any_difference);
}

TEST(HomesGeneratorTest, AllAttributesNonNullAndPlausible) {
  const Geography geo = Geography::UnitedStates();
  HomesGeneratorConfig config;
  config.num_rows = 3000;
  const auto table = HomesGenerator(&geo, config).Generate();
  ASSERT_TRUE(table.ok());
  const Schema& schema = table->schema();
  const size_t price = schema.ColumnIndex("price").value();
  const size_t beds = schema.ColumnIndex("bedroomcount").value();
  const size_t baths = schema.ColumnIndex("bathcount").value();
  const size_t year = schema.ColumnIndex("yearbuilt").value();
  const size_t sqft = schema.ColumnIndex("squarefootage").value();
  const size_t nb = schema.ColumnIndex("neighborhood").value();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      ASSERT_FALSE(table->CellValue(r, c).is_null()) << "row " << r;
    }
    EXPECT_GE(table->CellValue(r, price).int64_value(), 40000);
    EXPECT_LE(table->CellValue(r, price).int64_value(), 8000000);
    EXPECT_GE(table->CellValue(r, beds).int64_value(), 1);
    EXPECT_LE(table->CellValue(r, beds).int64_value(), 9);
    EXPECT_GE(table->CellValue(r, baths).int64_value(), 1);
    EXPECT_GE(table->CellValue(r, year).int64_value(), 1900);
    EXPECT_LE(table->CellValue(r, year).int64_value(), 2004);
    EXPECT_GE(table->CellValue(r, sqft).int64_value(), 300);
    EXPECT_TRUE(
        geo.RegionOfNeighborhood(table->CellValue(r, nb).string_value())
            .ok());
  }
}

TEST(HomesGeneratorTest, RegionalPriceLevelsOrdered) {
  const Geography geo = Geography::UnitedStates();
  HomesGeneratorConfig config;
  config.num_rows = 20000;
  const auto table = HomesGenerator(&geo, config).Generate();
  ASSERT_TRUE(table.ok());
  const size_t price = table->schema().ColumnIndex("price").value();
  const size_t nb = table->schema().ColumnIndex("neighborhood").value();
  double nyc_sum = 0;
  size_t nyc_count = 0;
  double austin_sum = 0;
  size_t austin_count = 0;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    const auto region =
        geo.RegionOfNeighborhood(table->CellValue(r, nb).string_value());
    ASSERT_TRUE(region.ok());
    if (region.value()->name == "NYC - Manhattan, Bronx") {
      nyc_sum += table->CellValue(r, price).AsDouble();
      ++nyc_count;
    } else if (region.value()->name == "Austin") {
      austin_sum += table->CellValue(r, price).AsDouble();
      ++austin_count;
    }
  }
  ASSERT_GT(nyc_count, 100u);
  ASSERT_GT(austin_count, 100u);
  EXPECT_GT(nyc_sum / nyc_count, 3 * (austin_sum / austin_count));
}

TEST(WorkloadGeneratorTest, EveryQueryParses) {
  const Geography geo = Geography::UnitedStates();
  const auto schema = HomesGenerator::ListPropertySchema();
  ASSERT_TRUE(schema.ok());
  WorkloadGeneratorConfig config;
  config.num_queries = 3000;
  const WorkloadGenerator generator(&geo, config);
  WorkloadParseReport report;
  const auto workload = generator.Generate(schema.value(), &report);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_EQ(report.total, 3000u);
  EXPECT_EQ(report.parsed, 3000u);
  EXPECT_EQ(report.parse_errors, 0u);
  EXPECT_EQ(report.unsupported, 0u);
}

TEST(WorkloadGeneratorTest, UsageFrequenciesMatchConfiguredOrder) {
  const Geography geo = Geography::UnitedStates();
  const auto schema = HomesGenerator::ListPropertySchema();
  ASSERT_TRUE(schema.ok());
  WorkloadGeneratorConfig config;
  config.num_queries = 8000;
  const WorkloadGenerator generator(&geo, config);
  const auto workload = generator.Generate(schema.value(), nullptr);
  ASSERT_TRUE(workload.ok());
  WorkloadStatsOptions stats_options;
  stats_options.split_intervals = {{"price", 5000},
                                   {"squarefootage", 100},
                                   {"yearbuilt", 5},
                                   {"bedroomcount", 1},
                                   {"bathcount", 1}};
  const auto stats = WorkloadStats::Build(workload.value(), schema.value(),
                                          stats_options);
  ASSERT_TRUE(stats.ok());
  // The Figure 4(a) ordering: neighborhood > bedrooms > price >
  // squarefootage > yearbuilt.
  EXPECT_GT(stats->AttrUsageCount("neighborhood"),
            stats->AttrUsageCount("bedroomcount"));
  EXPECT_GT(stats->AttrUsageCount("bedroomcount"),
            stats->AttrUsageCount("price"));
  EXPECT_GT(stats->AttrUsageCount("price"),
            stats->AttrUsageCount("squarefootage"));
  EXPECT_GT(stats->AttrUsageCount("squarefootage"),
            stats->AttrUsageCount("yearbuilt"));
  // The paper's six retained attributes at x = 0.4 — and only those.
  const double x = 0.4;
  for (const char* kept : {"neighborhood", "price", "bedroomcount",
                           "bathcount", "propertytype", "squarefootage"}) {
    EXPECT_GE(stats->AttrUsageFraction(kept), x) << kept;
  }
  for (const char* dropped : {"yearbuilt", "city", "state", "zipcode"}) {
    EXPECT_LT(stats->AttrUsageFraction(dropped), x) << dropped;
  }
}

TEST(WorkloadGeneratorTest, PriceEndpointsAreRound) {
  const Geography geo = Geography::UnitedStates();
  const auto schema = HomesGenerator::ListPropertySchema();
  ASSERT_TRUE(schema.ok());
  WorkloadGeneratorConfig config;
  config.num_queries = 1000;
  const auto workload =
      WorkloadGenerator(&geo, config).Generate(schema.value(), nullptr);
  ASSERT_TRUE(workload.ok());
  for (const WorkloadEntry& entry : workload->entries()) {
    const AttributeCondition* price = entry.profile.Find("price");
    if (price == nullptr) {
      continue;
    }
    ASSERT_TRUE(price->is_range());
    if (std::isfinite(price->range.lo)) {
      EXPECT_DOUBLE_EQ(std::fmod(price->range.lo, 25000.0), 0.0);
    }
    if (std::isfinite(price->range.hi)) {
      EXPECT_DOUBLE_EQ(std::fmod(price->range.hi, 25000.0), 0.0);
    }
  }
}

// ---------------------------------------------------------------- personas

TEST(StudyTasksTest, FourTasksMatchingThePaper) {
  const Geography geo = Geography::UnitedStates();
  const auto tasks = PaperStudyTasks(geo);
  ASSERT_TRUE(tasks.ok());
  ASSERT_EQ(tasks->size(), 4u);
  EXPECT_EQ((*tasks)[0].id, "Task 1");
  // Task 1: all Seattle/Bellevue neighborhoods, price < 1M.
  const AttributeCondition* nb1 = (*tasks)[0].query.Find("neighborhood");
  ASSERT_NE(nb1, nullptr);
  EXPECT_EQ(nb1->values.size(),
            geo.FindRegion("Seattle/Bellevue")
                .value()
                ->neighborhoods.size());
  const AttributeCondition* price1 = (*tasks)[0].query.Find("price");
  ASSERT_NE(price1, nullptr);
  EXPECT_DOUBLE_EQ(price1->range.hi, 1e6);
  EXPECT_FALSE(price1->range.hi_inclusive);
  // Task 3: exactly 15 NYC neighborhoods.
  EXPECT_EQ((*tasks)[2].query.Find("neighborhood")->values.size(), 15u);
  // Task 4 constrains bedrooms 3-4.
  const AttributeCondition* beds = (*tasks)[3].query.Find("bedroomcount");
  ASSERT_NE(beds, nullptr);
  EXPECT_DOUBLE_EQ(beds->range.lo, 3);
  EXPECT_DOUBLE_EQ(beds->range.hi, 4);
}

TEST(PersonaTest, ElevenPersonasWithVariedNoise) {
  const auto personas = DefaultPersonas();
  ASSERT_EQ(personas.size(), 11u);
  EXPECT_EQ(personas[0].name, "U1");
  EXPECT_EQ(personas[10].name, "U11");
  double min_noise = 1;
  double max_noise = 0;
  for (const Persona& persona : personas) {
    min_noise = std::min(min_noise, persona.decision_noise);
    max_noise = std::max(max_noise, persona.decision_noise);
  }
  EXPECT_LT(min_noise, 0.05);
  EXPECT_GE(max_noise, 0.25);
}

TEST(PersonaTest, InterestNarrowsTheTask) {
  const Geography geo = Geography::UnitedStates();
  const auto tasks = PaperStudyTasks(geo);
  ASSERT_TRUE(tasks.ok());
  const auto personas = DefaultPersonas();
  for (const StudyTask& task : tasks.value()) {
    for (const Persona& persona : personas) {
      const auto interest = PersonaInterest(task, persona, geo);
      ASSERT_TRUE(interest.ok());
      // Fewer neighborhoods than the task, all within the task's set.
      const auto* task_nb = task.query.Find("neighborhood");
      const auto* my_nb = interest->Find("neighborhood");
      ASSERT_NE(my_nb, nullptr);
      EXPECT_LE(my_nb->values.size(), 4u);
      EXPECT_GE(my_nb->values.size(), 2u);
      for (const Value& v : my_nb->values) {
        EXPECT_TRUE(task_nb->values.count(v) > 0) << v.ToString();
      }
      // Price band inside the task's window.
      const auto* task_price = task.query.Find("price");
      const auto* my_price = interest->Find("price");
      ASSERT_NE(my_price, nullptr);
      if (task_price != nullptr && std::isfinite(task_price->range.hi)) {
        EXPECT_LE(my_price->range.hi, task_price->range.hi + 1e-9);
      }
    }
  }
}

TEST(PersonaTest, InterestDeterministicPerPersonaAndTask) {
  const Geography geo = Geography::UnitedStates();
  const auto tasks = PaperStudyTasks(geo);
  const auto personas = DefaultPersonas();
  const auto a = PersonaInterest((*tasks)[0], personas[2], geo);
  const auto b = PersonaInterest((*tasks)[0], personas[2], geo);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
  const auto other_task = PersonaInterest((*tasks)[1], personas[2], geo);
  const auto other_persona = PersonaInterest((*tasks)[0], personas[3], geo);
  EXPECT_NE(other_task->ToString(), a->ToString());
  EXPECT_NE(other_persona->ToString(), a->ToString());
}

}  // namespace
}  // namespace autocat
