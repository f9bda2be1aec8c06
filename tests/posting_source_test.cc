// Posting-list candidate source gate (DESIGN.md §10, §15).
//
// `ColumnarTable::Build` gives every string column CSR posting lists, and
// a compiled predicate whose string value set names few enough rows
// evaluates only the rows of that set's posting union. These tests check
// the lists are valid CSR (ascending, NULL-free, summing to the non-NULL
// row count, `{0}` for an empty dictionary), and that posting-sourced
// `Filter` selects exactly the rows `MatchesRow` keeps at threads
// {1, 2, 7, 16} and under every candidate-source rule: NULL string
// cells, tiny and ragged row counts (dense dictionary and double-range
// leaves included), IN lists with absent or duplicate names, two
// dictionary leaves, unions on both sides of the cutoff, a zone-pruned
// residual leaf, and a store-wrapped table without postings. The cold
// pipeline's work counters are checked against the candidates.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "exec/pipeline/cold_path.h"
#include "exec/pipeline/morsel.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

using Source = CompiledPredicate::CandidateSource;

// Restores the default candidate-source rule when a test ends, pass or
// fail.
class SourceGuard {
 public:
  explicit SourceGuard(Source source) {
    CompiledPredicate::ForceCandidateSourceForTest(source);
  }
  ~SourceGuard() {
    CompiledPredicate::ForceCandidateSourceForTest(Source::kCutoff);
  }
  SourceGuard(const SourceGuard&) = delete;
  SourceGuard& operator=(const SourceGuard&) = delete;
};

Schema ListingSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("city", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::string Name(const char* prefix, int64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s%02lld", prefix,
                static_cast<long long>(i));
  return buf;
}

// `n` listings: 64 uniform neighborhoods n00..n63 (each ~1/64 of the
// rows), 16 uniform cities c00..c15, and a price that is the row index
// times 1000 (so zones are price-clustered) or uniform. Each cell is
// NULL with probability `null_p`.
Table MakeListings(size_t n, uint64_t seed, double null_p,
                   bool clustered_price) {
  Table table(ListingSchema());
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    auto cell = [&](Value v) {
      row.push_back(rng.Bernoulli(null_p) ? Value() : std::move(v));
    };
    cell(Value(Name("n", rng.Uniform(0, 63))));
    cell(Value(Name("c", rng.Uniform(0, 15))));
    cell(Value(clustered_price ? 1000.0 * static_cast<double>(i)
                               : rng.UniformReal(1000, 1e6)));
    cell(Value(rng.Uniform(0, 8)));
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

SelectionProfile Profile(const std::string& where, const Schema& schema) {
  auto query = ParseQuery("SELECT * FROM listings WHERE " + where);
  EXPECT_TRUE(query.ok()) << where;
  auto profile = SelectionProfile::FromQuery(query.value(), schema);
  EXPECT_TRUE(profile.ok()) << where;
  return std::move(profile).value();
}

std::vector<uint32_t> Oracle(const Table& table,
                             const SelectionProfile& profile) {
  std::vector<uint32_t> rows;
  Row scratch;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (profile.MatchesRow(table.RowRef(r, &scratch), table.schema())) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

// Non-NULL rows of string column `col` whose value is in `names`.
size_t UnionSize(const Table& table, size_t col,
                 const std::set<std::string>& names) {
  size_t count = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value v = table.CellValue(r, col);
    count += (v.is_string() && names.count(v.string_value()) > 0) ? 1 : 0;
  }
  return count;
}

// Compiles `where` under each candidate-source rule and checks Filter at
// threads {1, 2, 7, 16} and AppendMorselSurvivors in morsel order against
// the MatchesRow oracle. `want_postings` is what the default cutoff rule
// must choose. Returns the default-rule compile for further checks.
std::optional<CompiledPredicate> ExpectExact(
    const Table& table, const std::shared_ptr<const ColumnarTable>& shadow,
    const std::string& where, bool want_postings) {
  const SelectionProfile profile = Profile(where, table.schema());
  const std::vector<uint32_t> expected = Oracle(table, profile);
  std::optional<CompiledPredicate> cutoff;
  for (const Source source :
       {Source::kCutoff, Source::kDense, Source::kPostings}) {
    const SourceGuard guard(source);
    auto compiled =
        CompiledPredicate::CompileProfile(profile, table.schema(), shadow);
    if (!compiled.ok()) {
      ADD_FAILURE() << where << ": " << compiled.status().ToString();
      return std::nullopt;
    }
    const std::string context =
        where + " (rule " + std::to_string(static_cast<int>(source)) + ")";
    if (source == Source::kCutoff) {
      EXPECT_EQ(compiled.value().uses_postings(), want_postings) << context;
    }
    if (source == Source::kDense) {
      EXPECT_FALSE(compiled.value().uses_postings()) << context;
    }
    for (const size_t threads : {1, 2, 7, 16}) {
      ParallelOptions parallel;
      parallel.threads = threads;
      auto got = compiled.value().Filter(parallel);
      EXPECT_TRUE(got.ok()) << context;
      EXPECT_EQ(got.value(), expected)
          << context << " threads=" << threads;
    }
    std::vector<uint32_t> by_morsel;
    for (size_t m = 0; m < compiled.value().num_morsels(); ++m) {
      compiled.value().AppendMorselSurvivors(m, &by_morsel);
    }
    EXPECT_EQ(by_morsel, expected) << context;
    if (source == Source::kCutoff) {
      cutoff = std::move(compiled).value();
    }
  }
  return cutoff;
}

// Sum of the cold path's per-morsel work over every morsel.
size_t RowsExamined(const CompiledPredicate& compiled) {
  size_t rows = 0;
  for (size_t m = 0; m < compiled.num_morsels(); ++m) {
    rows += compiled.PlanMorsel(m).rows_examined;
  }
  return rows;
}

// A FromColumns wrap of `shadow` borrowing its arrays, as the segment
// store wraps mapped columns: same data, dictionaries and zones, and no
// posting lists or sorted orders.
std::shared_ptr<const ColumnarTable> WrapWithoutPostings(
    const std::shared_ptr<const ColumnarTable>& shadow) {
  std::vector<ColumnarTable::Column> columns;
  for (size_t c = 0; c < shadow->num_columns(); ++c) {
    const ColumnarTable::Column& src = shadow->column(c);
    ColumnarTable::Column col;
    col.type = src.type;
    col.null_count = src.null_count;
    col.null_words = src.null_words;
    col.i64 = src.i64;
    col.f64 = src.f64;
    col.codes = src.codes;
    col.dict = src.dict;
    col.zones = src.zones;
    columns.push_back(std::move(col));
  }
  return std::make_shared<const ColumnarTable>(ColumnarTable::FromColumns(
      shadow->num_rows(), std::move(columns), shadow));
}

// ----------------------------------------------------------- posting CSR

void ExpectValidPostings(const ColumnarTable& shadow) {
  const size_t n = shadow.num_rows();
  for (size_t c = 0; c < shadow.num_columns(); ++c) {
    const ColumnarTable::Column& col = shadow.column(c);
    if (col.type != ValueType::kString) {
      EXPECT_TRUE(col.posting_offsets.empty()) << "col " << c;
      EXPECT_TRUE(col.posting_rows.empty()) << "col " << c;
      continue;
    }
    ASSERT_EQ(col.posting_offsets.size(), col.dict.size() + 1) << "col " << c;
    EXPECT_EQ(col.posting_offsets.front(), 0u) << "col " << c;
    EXPECT_EQ(col.posting_offsets.back(), n - col.null_count) << "col " << c;
    ASSERT_EQ(col.posting_rows.size(), n - col.null_count) << "col " << c;
    std::vector<uint8_t> seen(n, 0);
    for (size_t code = 0; code < col.dict.size(); ++code) {
      const uint32_t begin = col.posting_offsets[code];
      const uint32_t end = col.posting_offsets[code + 1];
      ASSERT_LE(begin, end) << "col " << c << " code " << code;
      // Every dictionary entry comes from some row.
      EXPECT_LT(begin, end) << "col " << c << " code " << code;
      for (uint32_t k = begin; k < end; ++k) {
        const uint32_t row = col.posting_rows[k];
        ASSERT_LT(row, n);
        if (k > begin) {
          EXPECT_LT(col.posting_rows[k - 1], row) << "not ascending";
        }
        EXPECT_FALSE(col.IsNull(row)) << "NULL row " << row << " listed";
        EXPECT_EQ(col.codes[row], code) << "row " << row;
        ++seen[row];
      }
    }
    for (size_t r = 0; r < n; ++r) {
      EXPECT_EQ(seen[r], col.IsNull(r) ? 0 : 1) << "col " << c << " row " << r;
    }
  }
}

TEST(PostingListTest, BuildPostingsAreValidCsr) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{50},
                         2 * kZoneRows + 77}) {
    const Table table = MakeListings(n, 11 + n, 0.15, false);
    const ColumnarTable shadow = ColumnarTable::Build(table);
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectValidPostings(shadow);
  }
}

TEST(PostingListTest, EmptyDictionaryHasOneOffset) {
  // Every string cell NULL: the dictionary is empty and the lists are
  // `{0}` and nothing.
  const Table table = MakeListings(300, 5, 1.0, false);
  const ColumnarTable shadow = ColumnarTable::Build(table);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(shadow.column(c).dict.empty());
    EXPECT_EQ(shadow.column(c).posting_offsets, std::vector<uint32_t>{0});
    EXPECT_TRUE(shadow.column(c).posting_rows.empty());
  }
  ExpectValidPostings(shadow);
}

// ------------------------------------------------- filter vs the oracle

class PostingSourceTest : public ::testing::Test {
 protected:
  // `rows` as a Database installs it: column-backed over its shadow.
  void Use(const Table& rows) {
    shadow_ = std::make_shared<const ColumnarTable>(
        ColumnarTable::Build(rows));
    table_ = Table::FromColumnar(rows.schema(), shadow_);
  }
  Table table_{ListingSchema()};
  std::shared_ptr<const ColumnarTable> shadow_;
};

TEST_F(PostingSourceTest, NullStringCells) {
  Use(MakeListings(5 * kMorselRows + 300, 21, 0.2, false));
  ExpectExact(table_, shadow_, "neighborhood IN ('n03', 'n17')", true);
  ExpectExact(table_, shadow_,
              "neighborhood IN ('n03') AND bedroomcount >= 3", true);
}

TEST_F(PostingSourceTest, TinyAndRaggedRowCounts) {
  // One row, below and around one bitmap word, around one morsel, and
  // ragged last morsels; with and without NULL cells (the leaf masks
  // NULL rows only when its column has some). Under the dense rule the
  // first leaf fills each morsel's mask: the dictionary leaf, or the
  // double-range leaf when price stands alone.
  for (const size_t n :
       {size_t{1}, size_t{7}, size_t{50}, size_t{63}, size_t{64},
        size_t{65}, kMorselRows - 1, kMorselRows + 1, 2 * kMorselRows + 77,
        3 * kMorselRows + 77}) {
    for (const double null_p : {0.0, 0.1}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " null_p=" + std::to_string(null_p));
      Use(MakeListings(n, 31 + n, null_p, false));
      // When the sample lacks the name the leaf never matches; below
      // kPostingCutoffDivisor rows even one candidate is over the cutoff.
      const size_t hits = UnionSize(table_, 0, {"n05"});
      const bool want = hits > 0 &&
                        hits * CompiledPredicate::kPostingCutoffDivisor <= n;
      ExpectExact(table_, shadow_, "neighborhood IN ('n05')", want);
      ExpectExact(table_, shadow_,
                  "neighborhood IN ('n05') AND price < 500000", want);
      ExpectExact(table_, shadow_, "price < 500000", false);
      ExpectExact(table_, shadow_, "price >= 250000 AND price <= 750000",
                  false);
    }
  }
}

TEST_F(PostingSourceTest, AbsentAndDuplicateNames) {
  Use(MakeListings(4 * kMorselRows + 11, 41, 0.05, false));
  ExpectExact(table_, shadow_,
              "neighborhood IN ('n09', 'n09', 'nowhere', 'n40')", true);
  std::optional<CompiledPredicate> dup = ExpectExact(
      table_, shadow_, "neighborhood IN ('n09', 'n09', 'nowhere')", true);
  ASSERT_TRUE(dup.has_value());
  // A duplicate name counts its list once.
  EXPECT_EQ(RowsExamined(*dup), UnionSize(table_, 0, {"n09"}));
  // Only absent names: no row can match, whatever the source.
  ExpectExact(table_, shadow_, "neighborhood IN ('nowhere', 'nope')", false);
}

TEST_F(PostingSourceTest, SmallerOfTwoUnionsIsTheSource) {
  Use(MakeListings(8 * kMorselRows, 51, 0.1, false));
  // city ('c04', ~1/16) precedes neighborhood (two names, ~2/64) in
  // profile order; both are under the cutoff and the smaller wins.
  const std::set<std::string> names = {"n10", "n11"};
  const size_t hood = UnionSize(table_, 0, names);
  const size_t city = UnionSize(table_, 1, {"c04"});
  ASSERT_LT(hood, city);
  ASSERT_LE(city * CompiledPredicate::kPostingCutoffDivisor,
            table_.num_rows());
  std::optional<CompiledPredicate> both = ExpectExact(
      table_, shadow_,
      "city IN ('c04') AND neighborhood IN ('n10', 'n11')", true);
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(RowsExamined(*both), hood);
}

TEST_F(PostingSourceTest, UnionsOnBothSidesOfTheCutoff) {
  Use(MakeListings(16 * kMorselRows, 61, 0.0, false));
  const size_t n = table_.num_rows();
  // 4 of 64 names (~n/16) is under the n/4 cutoff; 24 of 64 (~3n/8) is
  // over.
  std::string small = "neighborhood IN (";
  std::string large = "neighborhood IN (";
  std::set<std::string> small_names;
  std::set<std::string> large_names;
  for (int i = 0; i < 24; ++i) {
    const std::string name = Name("n", i);
    large += (i > 0 ? ", '" : "'") + name + "'";
    large_names.insert(name);
    if (i < 4) {
      small += (i > 0 ? ", '" : "'") + name + "'";
      small_names.insert(name);
    }
  }
  small += ")";
  large += ")";
  ASSERT_LE(UnionSize(table_, 0, small_names) *
                CompiledPredicate::kPostingCutoffDivisor,
            n);
  ASSERT_GT(UnionSize(table_, 0, large_names) *
                CompiledPredicate::kPostingCutoffDivisor,
            n);
  std::optional<CompiledPredicate> under =
      ExpectExact(table_, shadow_, small + " AND bedroomcount < 6", true);
  std::optional<CompiledPredicate> over =
      ExpectExact(table_, shadow_, large + " AND bedroomcount < 6", false);
  ASSERT_TRUE(under.has_value() && over.has_value());
  EXPECT_EQ(RowsExamined(*under), UnionSize(table_, 0, small_names));
  // The dense scan examines every row of the (all mixed) morsels.
  EXPECT_EQ(RowsExamined(*over), n);
}

TEST_F(PostingSourceTest, ZonePrunedResidualLeaf) {
  // Price climbs with the row index, so `price < 3000000` (the first
  // 3000 rows) leaves every later morsel all-fail on the residual leaf.
  Use(MakeListings(8 * kMorselRows, 71, 0.05, true));
  std::optional<CompiledPredicate> compiled = ExpectExact(
      table_, shadow_, "neighborhood IN ('n01', 'n02') AND price < 3000000",
      true);
  ASSERT_TRUE(compiled.has_value());
  ColdPipelineOptions options;
  options.parallel.threads = 1;
  AUTOCAT_ASSERT_OK_AND_MOVE(
      ColdPipelineResult piped,
      RunColdPipeline(*compiled, table_, shadow_.get(), {}, options));
  EXPECT_EQ(piped.timings.morsels, 8u);
  EXPECT_EQ(piped.timings.morsels_pruned, 6u);
  // Only the candidates of the two unpruned morsels were examined.
  size_t candidates = 0;
  for (size_t r = 0; r < 2 * kMorselRows; ++r) {
    const Value v = table_.CellValue(r, 0);
    candidates += (v.is_string() && (v.string_value() == "n01" ||
                                     v.string_value() == "n02"))
                      ? 1
                      : 0;
  }
  EXPECT_EQ(piped.timings.rows_examined, candidates);
  EXPECT_EQ(piped.selection,
            Oracle(table_, Profile("neighborhood IN ('n01', 'n02') AND "
                                   "price < 3000000",
                                   table_.schema())));
}

TEST_F(PostingSourceTest, StoreWrappedTableHasNoPostings) {
  Use(MakeListings(6 * kMorselRows + 5, 81, 0.1, false));
  const std::shared_ptr<const ColumnarTable> wrapped =
      WrapWithoutPostings(shadow_);
  for (size_t c = 0; c < wrapped->num_columns(); ++c) {
    EXPECT_TRUE(wrapped->column(c).posting_offsets.empty());
  }
  // Even the forced posting rule has no lists to use here.
  ExpectExact(table_, wrapped, "neighborhood IN ('n07')", false);
  const SourceGuard guard(Source::kPostings);
  auto compiled = CompiledPredicate::CompileProfile(
      Profile("neighborhood IN ('n07')", table_.schema()), table_.schema(),
      wrapped);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE(compiled.value().uses_postings());
}

TEST_F(PostingSourceTest, RandomizedProfilesMatchOracle) {
  Use(MakeListings(5 * kMorselRows + 123, 91, 0.1, false));
  Random rng(9191);
  size_t posting_sourced = 0;
  for (int i = 0; i < 60; ++i) {
    std::string where = "neighborhood IN (";
    const int64_t names = rng.Uniform(1, 40);
    for (int64_t k = 0; k < names; ++k) {
      where += (k > 0 ? ", '" : "'") + Name("n", rng.Uniform(0, 70)) + "'";
    }
    where += ")";
    if (rng.Bernoulli(0.3)) {
      where += " AND city IN ('" + Name("c", rng.Uniform(0, 15)) + "', '" +
               Name("c", rng.Uniform(0, 15)) + "')";
    }
    if (rng.Bernoulli(0.5)) {
      where += " AND bedroomcount <= " + std::to_string(rng.Uniform(0, 8));
    }
    const SelectionProfile profile = Profile(where, table_.schema());
    auto compiled =
        CompiledPredicate::CompileProfile(profile, table_.schema(), shadow_);
    ASSERT_TRUE(compiled.ok());
    posting_sourced += compiled.value().uses_postings() ? 1 : 0;
    ExpectExact(table_, shadow_, where, compiled.value().uses_postings());
  }
  // Both sides of the cutoff are covered.
  EXPECT_GE(posting_sourced, 10u);
  EXPECT_LE(posting_sourced, 50u);
}

// ------------------------------------------------------- work counters

TEST_F(PostingSourceTest, RowsExaminedFollowTheCandidateSource) {
  Use(MakeListings(4 * kMorselRows, 101, 0.0, false));
  ColdPipelineOptions options;
  options.parallel.threads = 1;
  const auto run = [&](const std::string& where) {
    auto compiled = CompiledPredicate::CompileProfile(
        Profile(where, table_.schema()), table_.schema(), shadow_);
    EXPECT_TRUE(compiled.ok());
    auto piped = RunColdPipeline(compiled.value(), table_, shadow_.get(), {},
                                 options);
    EXPECT_TRUE(piped.ok());
    return std::move(piped).value().timings;
  };
  // Profile leaves follow attribute-name order. Dense scan led by a
  // dictionary leaf (city sorts before price; six of 16 cities is over
  // the posting cutoff): every row of every mixed morsel is examined.
  const std::string six_cities =
      "city IN ('c01', 'c02', 'c03', 'c04', 'c05', 'c06')";
  const ColdPipelineTimings dense_dict = run(six_cities + " AND price > 10");
  EXPECT_EQ(dense_dict.rows_examined, 4 * kMorselRows);
  // Dense scan led by an int64 range leaf (bedroomcount sorts before
  // city): the same.
  const ColdPipelineTimings dense_int =
      run(six_cities + " AND bedroomcount < 5");
  EXPECT_EQ(dense_int.rows_examined, 4 * kMorselRows);
  // Posting-sourced: only the candidates are examined.
  const ColdPipelineTimings posted = run("city IN ('c01') AND price > 10");
  EXPECT_EQ(posted.rows_examined, UnionSize(table_, 1, {"c01"}));
}

}  // namespace
}  // namespace autocat
