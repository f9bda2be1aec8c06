// Tests for the cost-based partitioners (Sections 5.1.2/5.1.3) and the
// baseline partitioners (Section 6.1).

#include "core/partition.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "core/categorizer.h"
#include "test_util.h"

namespace autocat {
namespace {

using test::HomesTable;
using test::StatsFromSql;

// The partitioners read a column-backed table: these tests hand them one
// over a shadow of their builder table.
Table Backed(const Table& table) { return test::ColumnBackedCopy(table); }

std::vector<size_t> AllRows(const Table& table) {
  std::vector<size_t> rows(table.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = i;
  }
  return rows;
}

// Every partitioner must produce disjoint categories that cover exactly
// the non-NULL tuples.
void ExpectDisjointCover(const std::vector<PartitionCategory>& parts,
                         const Table& table,
                         const std::vector<size_t>& input,
                         const std::string& attribute) {
  const size_t col = table.schema().ColumnIndex(attribute).value();
  std::set<size_t> seen;
  for (const PartitionCategory& part : parts) {
    for (size_t idx : part.tuples) {
      EXPECT_TRUE(seen.insert(idx).second)
          << "tuple " << idx << " placed twice";
      EXPECT_TRUE(part.label.Matches(table.CellValue(idx, col)))
          << "tuple " << idx << " violates its label "
          << part.label.ToString();
    }
  }
  size_t non_null = 0;
  for (size_t idx : input) {
    if (!table.CellValue(idx, col).is_null()) {
      ++non_null;
    }
  }
  EXPECT_EQ(seen.size(), non_null);
}

// ------------------------------------------------------------- categorical

TEST(PartitionCategoricalTest, SingleValueCategoriesByOccurrence) {
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE neighborhood = 'b'",
      "SELECT * FROM homes WHERE neighborhood = 'b'",
      "SELECT * FROM homes WHERE neighborhood IN ('c', 'b')",
      "SELECT * FROM homes WHERE neighborhood = 'a'",
  });
  const Table table =
      HomesTable({{"a", 1, 1}, {"b", 2, 2}, {"b", 3, 3}, {"c", 4, 4}});
  const auto parts =
      PartitionCategorical(Backed(table), AllRows(table), "neighborhood", stats);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  // occ(b)=3 > occ(a)=1 = occ(c)=1; value order breaks the a/c tie.
  EXPECT_EQ((*parts)[0].label.values(), (std::vector<Value>{Value("b")}));
  EXPECT_EQ((*parts)[1].label.values(), (std::vector<Value>{Value("a")}));
  EXPECT_EQ((*parts)[2].label.values(), (std::vector<Value>{Value("c")}));
  EXPECT_EQ((*parts)[0].tuples.size(), 2u);
  ExpectDisjointCover(parts.value(), table, AllRows(table), "neighborhood");
}

TEST(PartitionCategoricalTest, SubsetOfRows) {
  const WorkloadStats stats = StatsFromSql(
      {"SELECT * FROM homes WHERE neighborhood = 'a'"});
  const Table table =
      HomesTable({{"a", 1, 1}, {"b", 2, 2}, {"a", 3, 3}, {"c", 4, 4}});
  const auto parts =
      PartitionCategorical(Backed(table), {0, 1}, "neighborhood", stats);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 2u);
  ExpectDisjointCover(parts.value(), table, {0, 1}, "neighborhood");
}

TEST(PartitionCategoricalTest, UnknownAttributeErrors) {
  const WorkloadStats stats = StatsFromSql(
      {"SELECT * FROM homes WHERE neighborhood = 'a'"});
  const Table table = HomesTable({{"a", 1, 1}});
  EXPECT_FALSE(
      PartitionCategorical(Backed(table), AllRows(table), "bogus", stats).ok());
}

// An order keys a column by its declared kind, so grouping a numeric
// column would group double-cast keys: both categorical partitioners
// refuse it, as the numeric ones refuse a categorical column.
TEST(PartitionCategoricalTest, NumericAttributeErrors) {
  const WorkloadStats stats = StatsFromSql(
      {"SELECT * FROM homes WHERE neighborhood = 'a'"});
  const Table table = HomesTable({{"a", 1, 1}, {"b", 2, 2}});
  const auto cost_based =
      PartitionCategorical(Backed(table), AllRows(table), "price", stats);
  ASSERT_FALSE(cost_based.ok());
  EXPECT_EQ(cost_based.status().code(), StatusCode::kInvalidArgument);
  const auto arbitrary = PartitionCategoricalArbitrary(
      Backed(table), AllRows(table), "price", nullptr);
  ASSERT_FALSE(arbitrary.ok());
  EXPECT_EQ(arbitrary.status().code(), StatusCode::kInvalidArgument);
}

// A builder table has no backing for an order to read: every per-node
// partitioner refuses it.
TEST(PartitionCategoricalTest, BuilderTableErrors) {
  const WorkloadStats stats = StatsFromSql(
      {"SELECT * FROM homes WHERE neighborhood = 'a'"});
  const Table table = HomesTable({{"a", 1, 1}, {"b", 2, 2}});
  const CategorizerOptions options;
  EXPECT_EQ(PartitionCategorical(table, AllRows(table), "neighborhood", stats)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PartitionCategoricalArbitrary(table, AllRows(table),
                                          "neighborhood", nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PartitionNumeric(table, AllRows(table), "price", stats, options,
                             nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PartitionNumericEquiWidth(table, AllRows(table), "price", 1000,
                                      nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionCategoricalTest, EmptyInputYieldsNoCategories) {
  const WorkloadStats stats = StatsFromSql(
      {"SELECT * FROM homes WHERE neighborhood = 'a'"});
  const Table table = HomesTable({{"a", 1, 1}});
  const auto parts =
      PartitionCategorical(Backed(table), {}, "neighborhood", stats);
  ASSERT_TRUE(parts.ok());
  EXPECT_TRUE(parts->empty());
}

// ----------------------------------------------------------------- numeric

TEST(PartitionNumericTest, PicksTopGoodnessSplitPoints) {
  // Goodness: 2000 -> 1 start; 5000 -> 3 (2 ends + 1 start);
  // 8000 -> 2 starts.
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE price BETWEEN 2000 AND 5000",
      "SELECT * FROM homes WHERE price BETWEEN 1000 AND 5000",
      "SELECT * FROM homes WHERE price BETWEEN 5000 AND 9000",
      "SELECT * FROM homes WHERE price BETWEEN 8000 AND 9000",
      "SELECT * FROM homes WHERE price BETWEEN 8000 AND 10000",
  });
  const Table table = HomesTable({{"a", 1000, 1},
                                  {"a", 3000, 1},
                                  {"a", 4500, 1},
                                  {"a", 6000, 1},
                                  {"a", 8500, 1},
                                  {"a", 9500, 1}});
  CategorizerOptions options;
  options.num_buckets = 3;  // pick 2 split points: 5000 and 8000
  const auto parts = PartitionNumeric(
      Backed(table), AllRows(table), "price", stats, options, nullptr);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_DOUBLE_EQ((*parts)[0].label.lo(), 1000);
  EXPECT_DOUBLE_EQ((*parts)[0].label.hi(), 5000);
  EXPECT_DOUBLE_EQ((*parts)[1].label.lo(), 5000);
  EXPECT_DOUBLE_EQ((*parts)[1].label.hi(), 8000);
  EXPECT_DOUBLE_EQ((*parts)[2].label.lo(), 8000);
  EXPECT_DOUBLE_EQ((*parts)[2].label.hi(), 9500);
  EXPECT_TRUE((*parts)[2].label.hi_inclusive());
  EXPECT_FALSE((*parts)[0].label.hi_inclusive());
  ExpectDisjointCover(parts.value(), table, AllRows(table), "price");
}

TEST(PartitionNumericTest, SkipsUnnecessarySplitPoints) {
  // 5000 has the best goodness but would create an empty bucket
  // [5000, 9000) -- Example 5.1's "skip and take the next" behaviour.
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE price BETWEEN 5000 AND 9000",
      "SELECT * FROM homes WHERE price BETWEEN 5000 AND 9000",
      "SELECT * FROM homes WHERE price BETWEEN 2000 AND 9000",
  });
  const Table table = HomesTable({{"a", 1000, 1},
                                  {"a", 1500, 1},
                                  {"a", 3000, 1},
                                  {"a", 4000, 1},
                                  {"a", 9000, 1}});
  CategorizerOptions options;
  options.num_buckets = 2;
  options.min_bucket_tuples = 2;
  const auto parts = PartitionNumeric(
      Backed(table), AllRows(table), "price", stats, options, nullptr);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);
  // 5000 was skipped (its upper bucket [5000, 9000] would hold a single
  // tuple, below the 2-tuple floor); 2000 is the next best and splits 2|3.
  EXPECT_DOUBLE_EQ((*parts)[0].label.hi(), 2000);
  EXPECT_EQ((*parts)[0].tuples.size(), 2u);
  EXPECT_EQ((*parts)[1].tuples.size(), 3u);
}

TEST(PartitionNumericTest, QueryRangeSuppliesBounds) {
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE price BETWEEN 2000 AND 4000",
  });
  const Table table = HomesTable({{"a", 2500, 1}, {"a", 3500, 1}});
  NumericRange query_range;
  query_range.lo = 0;
  query_range.hi = 10000;
  CategorizerOptions options;
  options.num_buckets = 3;
  const auto parts = PartitionNumeric(
      Backed(table), AllRows(table), "price", stats, options, &query_range);
  ASSERT_TRUE(parts.ok());
  ASSERT_FALSE(parts->empty());
  // Buckets span the query range, not just the data range.
  EXPECT_DOUBLE_EQ(parts->front().label.lo(), 0);
  EXPECT_DOUBLE_EQ(parts->back().label.hi(), 10000);
  ExpectDisjointCover(parts.value(), table, AllRows(table), "price");
}

TEST(PartitionNumericTest, NoSplitPointsYieldsSingleBucket) {
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE neighborhood = 'a'",  // nothing on price
  });
  const Table table = HomesTable({{"a", 1000, 1}, {"a", 2000, 1}});
  CategorizerOptions options;
  const auto parts = PartitionNumeric(
      Backed(table), AllRows(table), "price", stats, options, nullptr);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ(parts->front().tuples.size(), 2u);
}

TEST(PartitionNumericTest, SingleValueDomain) {
  const WorkloadStats stats = StatsFromSql({
      "SELECT * FROM homes WHERE price BETWEEN 1000 AND 2000",
  });
  const Table table = HomesTable({{"a", 1500, 1}, {"b", 1500, 2}});
  CategorizerOptions options;
  const auto parts = PartitionNumeric(
      Backed(table), AllRows(table), "price", stats, options, nullptr);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ(parts->front().tuples.size(), 2u);
  EXPECT_TRUE(parts->front().label.Matches(Value(1500)));
}

TEST(PartitionNumericTest, DerivesBucketCountFromM) {
  // 100 tuples, M = 10 -> wants ceil(100/10) = 10 buckets, capped by
  // max_buckets and by available split points.
  std::vector<test::HomeRow> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(test::HomeRow{"a", (i % 10) * 1000, 1});
  }
  const Table table = HomesTable(rows);
  std::vector<std::string> sqls;
  for (int v = 1; v <= 9; ++v) {
    sqls.push_back("SELECT * FROM homes WHERE price BETWEEN 0 AND " +
                   std::to_string(v * 1000));
  }
  const WorkloadStats stats = StatsFromSql(sqls);
  CategorizerOptions options;
  options.max_tuples_per_category = 10;
  options.max_buckets = 6;
  const auto parts = PartitionNumeric(
      Backed(table), AllRows(table), "price", stats, options, nullptr);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 6u);  // capped at max_buckets
  ExpectDisjointCover(parts.value(), table, AllRows(table), "price");
}

TEST(PartitionNumericTest, CategoricalAttributeErrors) {
  const WorkloadStats stats = StatsFromSql(
      {"SELECT * FROM homes WHERE neighborhood = 'a'"});
  const Table table = HomesTable({{"a", 1, 1}});
  CategorizerOptions options;
  EXPECT_FALSE(PartitionNumeric(Backed(table), AllRows(table), "neighborhood",
                                stats, options, nullptr)
                   .ok());
}

// ---------------------------------------------------------------- baseline

TEST(PartitionArbitraryTest, ValueOrderWithoutRng) {
  const WorkloadStats stats = StatsFromSql(
      {"SELECT * FROM homes WHERE neighborhood = 'z'"});
  const Table table =
      HomesTable({{"c", 1, 1}, {"a", 2, 2}, {"b", 3, 3}});
  const auto parts = PartitionCategoricalArbitrary(
      Backed(table), AllRows(table), "neighborhood", nullptr);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_EQ((*parts)[0].label.values()[0], Value("a"));
  EXPECT_EQ((*parts)[1].label.values()[0], Value("b"));
  EXPECT_EQ((*parts)[2].label.values()[0], Value("c"));
}

TEST(PartitionArbitraryTest, ShuffledWithRngButStillAPartition) {
  const Table table = HomesTable(
      {{"c", 1, 1}, {"a", 2, 2}, {"b", 3, 3}, {"a", 4, 4}, {"d", 5, 5}});
  Random rng(99);
  const auto parts = PartitionCategoricalArbitrary(
      Backed(table), AllRows(table), "neighborhood", &rng);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 4u);
  ExpectDisjointCover(parts.value(), table, AllRows(table), "neighborhood");
}

TEST(PartitionEquiWidthTest, BucketsAlignedToWidthMultiples) {
  const Table table = HomesTable({{"a", 210000, 1},
                                  {"a", 230000, 1},
                                  {"a", 260000, 1},
                                  {"a", 299000, 1}});
  const auto parts = PartitionNumericEquiWidth(Backed(table), AllRows(table),
                                               "price", 25000, nullptr);
  ASSERT_TRUE(parts.ok());
  // Aligned buckets: [200K,225K) {210K}, [225K,250K) {230K},
  // [250K,275K) {260K}, [275K,300K] {299K}.
  ASSERT_EQ(parts->size(), 4u);
  EXPECT_DOUBLE_EQ((*parts)[0].label.lo(), 200000);
  EXPECT_DOUBLE_EQ((*parts)[0].label.hi(), 225000);
  ExpectDisjointCover(parts.value(), table, AllRows(table), "price");
}

TEST(PartitionEquiWidthTest, EmptyBucketsRemoved) {
  const Table table = HomesTable({{"a", 0, 1}, {"a", 100000, 1}});
  const auto parts = PartitionNumericEquiWidth(Backed(table), AllRows(table),
                                               "price", 10000, nullptr);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 2u);  // the 9 empty middles are dropped
}

TEST(PartitionEquiWidthTest, InvalidWidthErrors) {
  const Table table = HomesTable({{"a", 1, 1}});
  EXPECT_FALSE(PartitionNumericEquiWidth(Backed(table), AllRows(table), "price",
                                         0, nullptr)
                   .ok());
  EXPECT_FALSE(PartitionNumericEquiWidth(Backed(table), AllRows(table), "price",
                                         -10, nullptr)
                   .ok());
  EXPECT_FALSE(PartitionNumericEquiWidth(
                   Backed(table), AllRows(table), "price",
                   std::numeric_limits<double>::infinity(), nullptr)
                   .ok());
  EXPECT_FALSE(PartitionNumericEquiWidth(
                   Backed(table), AllRows(table), "price",
                   std::numeric_limits<double>::quiet_NaN(), nullptr)
                   .ok());
}

// Ranges the width cannot cut: the boundary walk used to run forever
// (an infinite cell never lets it reach vmax; near int64-extreme cells
// b + width == b). Each becomes one closed bucket holding every value.
// The core test binary's ctest TIMEOUT turns a hang into a failure.
TEST(PartitionEquiWidthTest, UncuttableRangesBecomeOneBucket) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const double big = std::ldexp(1.0, 60);
  const struct {
    const char* name;
    Value a;
    Value b;
    double width;
  } cases[] = {
      {"+inf cell", Value(100.0), Value(kInf), 50},
      {"-inf cell", Value(-kInf), Value(100.0), 50},
      {"both infinities", Value(-kInf), Value(kInf), 50},
      {"int64 extremes", Value(kMin), Value(kMax), 50},
      {"steps below one ulp", Value(big),
       Value(std::nextafter(big, kInf)), 100},
      {"more than 2^20 buckets", Value(int64_t{0}),
       Value(int64_t{1000000000000}), 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ValueType type = c.a.is_int64() ? ValueType::kInt64
                                          : ValueType::kDouble;
    auto schema =
        Schema::Create({ColumnDef("x", type, ColumnKind::kNumeric)});
    ASSERT_TRUE(schema.ok());
    Table table(schema.value());
    ASSERT_TRUE(table.AppendRow({c.a}).ok());
    ASSERT_TRUE(table.AppendRow({c.b}).ok());
    const auto parts = PartitionNumericEquiWidth(Backed(table), AllRows(table),
                                                 "x", c.width, nullptr);
    ASSERT_TRUE(parts.ok()) << parts.status().ToString();
    ASSERT_EQ(parts->size(), 1u);
    EXPECT_EQ(parts->front().tuples, (std::vector<size_t>{0, 1}));
    EXPECT_TRUE(parts->front().label.hi_inclusive());
    EXPECT_EQ(parts->front().label.hi(), c.b.AsDouble());
    EXPECT_TRUE(ValidateNumericPartition(parts.value()).ok());
  }
}

// Property: both numeric partitioners produce disjoint covering buckets in
// ascending order, for random data and random workloads.
class NumericPartitionPropertyTest : public ::testing::TestWithParam<int> {
};

TEST_P(NumericPartitionPropertyTest, DisjointCoverAscending) {
  Random rng(static_cast<uint64_t>(GetParam()));
  std::vector<test::HomeRow> rows;
  for (int i = 0; i < 80; ++i) {
    rows.push_back(
        test::HomeRow{"a", rng.Uniform(0, 20) * 500, rng.Uniform(1, 5)});
  }
  const Table table = HomesTable(rows);
  std::vector<std::string> sqls;
  for (int i = 0; i < 15; ++i) {
    const int64_t lo = rng.Uniform(0, 9) * 1000;
    sqls.push_back("SELECT * FROM homes WHERE price BETWEEN " +
                   std::to_string(lo) + " AND " +
                   std::to_string(lo + rng.Uniform(1, 5) * 1000));
  }
  const WorkloadStats stats = StatsFromSql(sqls);
  CategorizerOptions options;
  options.max_tuples_per_category =
      static_cast<size_t>(rng.Uniform(5, 30));
  const auto cost_based = PartitionNumeric(Backed(table), AllRows(table), "price",
                                           stats, options, nullptr);
  ASSERT_TRUE(cost_based.ok());
  ExpectDisjointCover(cost_based.value(), table, AllRows(table), "price");
  for (size_t i = 1; i < cost_based->size(); ++i) {
    EXPECT_LE((*cost_based)[i - 1].label.hi(), (*cost_based)[i].label.lo());
  }

  const auto equi = PartitionNumericEquiWidth(Backed(table), AllRows(table),
                                              "price", 2500, nullptr);
  ASSERT_TRUE(equi.ok());
  ExpectDisjointCover(equi.value(), table, AllRows(table), "price");
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericPartitionPropertyTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace autocat
