// Tests for workload ingestion and the count stores (AttributeUsageCounts,
// OccurrenceCounts, SplitPoints) of Sections 4.2 and 5.

#include <gtest/gtest.h>

#include <fstream>

#include "common/random.h"
#include "workload/counts.h"
#include "workload/workload.h"

namespace autocat {
namespace {

Schema HomesSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

WorkloadStatsOptions Options() {
  WorkloadStatsOptions options;
  options.split_intervals = {{"price", 1000}, {"bedroomcount", 1}};
  return options;
}

// ---------------------------------------------------------------- workload

TEST(WorkloadTest, ParseKeepsGoodSkipsBad) {
  WorkloadParseReport report;
  const Workload workload = Workload::Parse(
      {
          "SELECT * FROM homes WHERE price BETWEEN 1000 AND 2000",
          "this is not sql",
          "SELECT * FROM homes WHERE neighborhood = 'a' OR price <= 10",
          "SELECT * FROM homes WHERE neighborhood IN ('x', 'y')",
      },
      HomesSchema(), &report);
  EXPECT_EQ(report.total, 4u);
  EXPECT_EQ(report.parsed, 2u);
  EXPECT_EQ(report.parse_errors, 1u);
  EXPECT_EQ(report.unsupported, 1u);
  EXPECT_EQ(workload.size(), 2u);
  EXPECT_FALSE(report.sample_errors.empty());
}

TEST(WorkloadTest, NullReportIsAccepted) {
  const Workload workload = Workload::Parse(
      {"SELECT * FROM homes WHERE price <= 10"}, HomesSchema(), nullptr);
  EXPECT_EQ(workload.size(), 1u);
}

TEST(WorkloadTest, WithoutSplitsEntries) {
  const Workload workload = Workload::Parse(
      {
          "SELECT * FROM homes WHERE price <= 1",
          "SELECT * FROM homes WHERE price <= 2",
          "SELECT * FROM homes WHERE price <= 3",
      },
      HomesSchema(), nullptr);
  std::vector<WorkloadEntry> held_out;
  const Workload rest = workload.Without({1}, &held_out);
  EXPECT_EQ(rest.size(), 2u);
  ASSERT_EQ(held_out.size(), 1u);
  EXPECT_NE(held_out[0].sql.find("<= 2"), std::string::npos);
}

TEST(WorkloadTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/autocat_workload.sql";
  const Workload original = Workload::Parse(
      {"SELECT * FROM homes WHERE price <= 10",
       "SELECT * FROM homes WHERE neighborhood = 'x'"},
      HomesSchema(), nullptr);
  ASSERT_TRUE(original.SaveFile(path).ok());
  WorkloadParseReport report;
  const auto loaded = Workload::LoadFile(path, HomesSchema(), &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_FALSE(Workload::LoadFile("/no/such/file", HomesSchema(), nullptr)
                   .ok());
}

TEST(WorkloadTest, FileLoadingSkipsCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "/autocat_workload2.sql";
  {
    std::ofstream out(path);
    out << "# a comment\n\n"
        << "SELECT * FROM homes WHERE price <= 10\n"
        << "   \n";
  }
  const auto loaded = Workload::LoadFile(path, HomesSchema(), nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

// ------------------------------------------------------------ count stores

Workload SmallWorkload() {
  return Workload::Parse(
      {
          // 3 queries on neighborhood, 4 on price, 1 on bedroomcount.
          "SELECT * FROM homes WHERE neighborhood IN ('Bellevue', "
          "'Redmond')",
          "SELECT * FROM homes WHERE neighborhood = 'Bellevue' AND price "
          "BETWEEN 2000 AND 5000",
          "SELECT * FROM homes WHERE neighborhood = 'Seattle'",
          "SELECT * FROM homes WHERE price BETWEEN 5000 AND 8000",
          "SELECT * FROM homes WHERE price <= 2000",
          "SELECT * FROM homes WHERE price BETWEEN 2000 AND 8000 AND "
          "bedroomcount BETWEEN 3 AND 4",
      },
      HomesSchema(), nullptr);
}

TEST(WorkloadStatsTest, AttrUsageCounts) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_queries(), 6u);
  EXPECT_EQ(stats->AttrUsageCount("neighborhood"), 3u);
  EXPECT_EQ(stats->AttrUsageCount("price"), 4u);
  EXPECT_EQ(stats->AttrUsageCount("bedroomcount"), 1u);
  EXPECT_EQ(stats->AttrUsageCount("unknown"), 0u);
  EXPECT_DOUBLE_EQ(stats->AttrUsageFraction("price"), 4.0 / 6.0);
}

TEST(WorkloadStatsTest, OccurrenceCounts) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->OccurrenceCount("neighborhood", Value("Bellevue")), 2u);
  EXPECT_EQ(stats->OccurrenceCount("neighborhood", Value("Redmond")), 1u);
  EXPECT_EQ(stats->OccurrenceCount("neighborhood", Value("Seattle")), 1u);
  EXPECT_EQ(stats->OccurrenceCount("neighborhood", Value("Nowhere")), 0u);
}

// Lookups are case-insensitive whether or not the name needs lowering:
// mixed-case names return exactly the lowercase name's counts, and the
// schema resolves them to the same column.
TEST(WorkloadStatsTest, MixedCaseNamesMatchLowercase) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  ASSERT_TRUE(stats.ok());
  for (const auto& [lower, mixed] :
       std::vector<std::pair<std::string, std::string>>{
           {"neighborhood", "NeighborHood"},
           {"price", "PRICE"},
           {"bedroomcount", "bedroomCount"},
           {"unknown", "UnKnown"}}) {
    EXPECT_EQ(stats->AttrUsageCount(mixed), stats->AttrUsageCount(lower));
    EXPECT_EQ(stats->split_interval(mixed), stats->split_interval(lower));
    EXPECT_EQ(stats->SplitPointsInRange(mixed, 0, 10000).size(),
              stats->SplitPointsInRange(lower, 0, 10000).size());
    for (const Value& v : {Value("Bellevue"), Value("Redmond"),
                           Value(int64_t{3000}), Value(4.0)}) {
      EXPECT_EQ(stats->OccurrenceCount(mixed, v),
                stats->OccurrenceCount(lower, v))
          << mixed;
      EXPECT_EQ(stats->CountConditionsOverlappingSet(mixed, {v, Value("x")}),
                stats->CountConditionsOverlappingSet(lower, {v, Value("x")}))
          << mixed;
    }
    EXPECT_EQ(stats->CountConditionsOverlappingInterval(mixed, 1000, 6000),
              stats->CountConditionsOverlappingInterval(lower, 1000, 6000));
    const Schema schema = HomesSchema();
    EXPECT_EQ(schema.HasColumn(mixed), schema.HasColumn(lower));
    if (schema.HasColumn(lower)) {
      EXPECT_EQ(schema.ColumnIndex(mixed).value(),
                schema.ColumnIndex(lower).value());
    } else {
      EXPECT_FALSE(schema.ColumnIndex(mixed).ok());
    }
  }
  EXPECT_EQ(stats->OccurrenceCount("NEIGHBORHOOD", Value("Bellevue")), 2u);
  EXPECT_EQ(stats->CountConditionsOverlappingInterval("Price", 2000, 5000),
            stats->CountConditionsOverlappingInterval("price", 2000, 5000));
  EXPECT_GT(stats->CountConditionsOverlappingInterval("Price", 2000, 5000),
            0u);
}

TEST(WorkloadStatsTest, OccurrenceCountsSortedDescending) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  const auto sorted = stats->OccurrenceCountsSorted("neighborhood");
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, Value("Bellevue"));
  EXPECT_EQ(sorted[0].second, 2u);
  // Redmond and Seattle tie at 1; value order breaks the tie.
  EXPECT_EQ(sorted[1].first, Value("Redmond"));
  EXPECT_EQ(sorted[2].first, Value("Seattle"));
}

TEST(WorkloadStatsTest, NumericOccurrenceCountsRangeContainment) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  // Price 3000 is inside [2000,5000] and [2000,8000]: 2 conditions.
  EXPECT_EQ(stats->OccurrenceCount("price", Value(3000)), 2u);
  // Price 2000 is in [2000,5000], (-inf,2000], [2000,8000]: 3.
  EXPECT_EQ(stats->OccurrenceCount("price", Value(2000)), 3u);
}

TEST(WorkloadStatsTest, RangeOverlapCounting) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  // Ranges on price: [2000,5000], [5000,8000], (-inf,2000], [2000,8000].
  EXPECT_EQ(stats->CountConditionsOverlappingInterval("price", 0, 1000),
            1u);
  EXPECT_EQ(stats->CountConditionsOverlappingInterval("price", 3000, 4000),
            2u);
  EXPECT_EQ(stats->CountConditionsOverlappingInterval("price", 5000, 5000),
            3u);
  EXPECT_EQ(stats->CountConditionsOverlappingInterval("price", 0, 9000),
            4u);
  EXPECT_EQ(
      stats->CountConditionsOverlappingInterval("price", 9000, 10000), 0u);
  EXPECT_EQ(stats->CountConditionsOverlappingInterval("unknown", 0, 1), 0u);
}

TEST(WorkloadStatsTest, SetOverlapCounting) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  EXPECT_EQ(stats->CountConditionsOverlappingSet(
                "neighborhood", {Value("Bellevue"), Value("Seattle")}),
            3u);
  EXPECT_EQ(stats->CountConditionsOverlappingSet("neighborhood",
                                                 {Value("Redmond")}),
            1u);
  EXPECT_EQ(
      stats->CountConditionsOverlappingSet("neighborhood", {Value("X")}),
      0u);
  EXPECT_EQ(stats->CountConditionsOverlappingSet("neighborhood", {}), 0u);
}

TEST(WorkloadStatsTest, SplitPointsHaveStartEndCounts) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  const auto points = stats->SplitPointsInRange("price", 0, 10000);
  // Interior points with nonzero goodness: 2000 (start of 2, end of 1),
  // 5000 (end of 1, start of 1), 8000 is an endpoint of ranges ending
  // there (end of 2).
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].v, 2000);
  EXPECT_EQ(points[0].start, 2u);
  EXPECT_EQ(points[0].end, 1u);
  EXPECT_EQ(points[0].goodness(), 3u);
  EXPECT_DOUBLE_EQ(points[1].v, 5000);
  EXPECT_EQ(points[1].start, 1u);
  EXPECT_EQ(points[1].end, 1u);
  EXPECT_DOUBLE_EQ(points[2].v, 8000);
  EXPECT_EQ(points[2].end, 2u);
}

TEST(WorkloadStatsTest, SplitPointsRangeIsExclusive) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  // (2000, 8000) excludes both endpoints.
  const auto points = stats->SplitPointsInRange("price", 2000, 8000);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].v, 5000);
  EXPECT_TRUE(stats->SplitPointsInRange("nothing", 0, 1).empty());
}

TEST(WorkloadStatsTest, EndpointSnappingToGrid) {
  // Interval 1000: endpoints 2499 and 5501 snap outward to 2000 and 6000.
  const Workload workload = Workload::Parse(
      {"SELECT * FROM homes WHERE price BETWEEN 2499 AND 5501"},
      HomesSchema(), nullptr);
  const auto stats =
      WorkloadStats::Build(workload, HomesSchema(), Options());
  const auto points = stats->SplitPointsInRange("price", 0, 100000);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].v, 2000);
  EXPECT_EQ(points[0].start, 1u);
  EXPECT_DOUBLE_EQ(points[1].v, 6000);
  EXPECT_EQ(points[1].end, 1u);
}

TEST(WorkloadStatsTest, CountTableExports) {
  const auto stats =
      WorkloadStats::Build(SmallWorkload(), HomesSchema(), Options());
  const Table usage = stats->AttributeUsageCountsTable(HomesSchema());
  ASSERT_EQ(usage.num_rows(), 3u);
  // Sorted by descending usage: price (4) first.
  EXPECT_EQ(usage.ValueAt(0, 0).string_value(), "price");
  EXPECT_EQ(usage.ValueAt(0, 1).int64_value(), 4);

  const auto occurrence = stats->OccurrenceCountsTable("neighborhood");
  ASSERT_TRUE(occurrence.ok());
  EXPECT_EQ(occurrence->num_rows(), 3u);
  EXPECT_EQ(occurrence->ValueAt(0, 0).string_value(), "Bellevue");

  const auto splits = stats->SplitPointsTable("price");
  ASSERT_TRUE(splits.ok());
  EXPECT_GE(splits->num_rows(), 3u);
  EXPECT_FALSE(stats->SplitPointsTable("neighborhood").ok());
}

TEST(WorkloadStatsTest, EmptyWorkload) {
  const auto stats =
      WorkloadStats::Build(Workload(), HomesSchema(), Options());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_queries(), 0u);
  EXPECT_DOUBLE_EQ(stats->AttrUsageFraction("price"), 0);
  EXPECT_EQ(stats->CountConditionsOverlappingInterval("price", 0, 1), 0u);
}

TEST(WorkloadStatsTest, InvalidOptionsRejected) {
  WorkloadStatsOptions bad;
  bad.default_split_interval = 0;
  EXPECT_FALSE(WorkloadStats::Build(Workload(), HomesSchema(), bad).ok());
  WorkloadStatsOptions negative;
  negative.split_intervals = {{"price", -5}};
  EXPECT_FALSE(
      WorkloadStats::Build(Workload(), HomesSchema(), negative).ok());
  WorkloadStatsOptions upper_key;
  upper_key.split_intervals = {{"Price", 5}};
  EXPECT_FALSE(
      WorkloadStats::Build(Workload(), HomesSchema(), upper_key).ok());
}

TEST(WorkloadStatsTest, SplitIntervalLookup) {
  const auto stats =
      WorkloadStats::Build(Workload(), HomesSchema(), Options());
  EXPECT_DOUBLE_EQ(stats->split_interval("price"), 1000);
  EXPECT_DOUBLE_EQ(stats->split_interval("PRICE"), 1000);
  EXPECT_DOUBLE_EQ(stats->split_interval("other"), 1.0);
}

// Property test: the prefix-sum overlap counter agrees with a brute-force
// scan over the original conditions, for random grid-aligned workloads.
class OverlapCountPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OverlapCountPropertyTest, FastPathMatchesBruteForce) {
  Random rng(static_cast<uint64_t>(GetParam()));
  std::vector<std::string> sqls;
  std::vector<std::pair<double, double>> ranges;
  const double interval = 1000;
  for (int i = 0; i < 60; ++i) {
    const double lo = interval * static_cast<double>(rng.Uniform(0, 30));
    const double hi =
        lo + interval * static_cast<double>(rng.Uniform(0, 20));
    ranges.emplace_back(lo, hi);
    sqls.push_back("SELECT * FROM homes WHERE price BETWEEN " +
                   Value(lo).ToString() + " AND " + Value(hi).ToString());
  }
  const Workload workload =
      Workload::Parse(sqls, HomesSchema(), nullptr);
  ASSERT_EQ(workload.size(), sqls.size());
  const auto stats =
      WorkloadStats::Build(workload, HomesSchema(), Options());
  ASSERT_TRUE(stats.ok());

  for (int trial = 0; trial < 50; ++trial) {
    const double a = interval * static_cast<double>(rng.Uniform(0, 40));
    const double b = a + interval * static_cast<double>(rng.Uniform(0, 15));
    size_t brute = 0;
    for (const auto& [lo, hi] : ranges) {
      if (hi >= a && lo <= b) {
        ++brute;
      }
    }
    EXPECT_EQ(stats->CountConditionsOverlappingInterval("price", a, b),
              brute)
        << "interval [" << a << ", " << b << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapCountPropertyTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace autocat
