// Zone-map construction and zone-prover soundness gate (DESIGN.md §15).
//
// The zone prover promises *refuse-or-exact* morsel verdicts: whatever
// `CompiledPredicate::MorselVerdict` rules — kAllFail (no row of the
// morsel matches) or kAllPass (every row matches) — must agree with
// row-by-row evaluation; anything it cannot prove it calls kMixed. These
// tests rebuild the Build-path zone metadata from the typed arrays and
// compare it field by field, replay randomized profiles over hostile
// tables (NaN, -0.0, int64 extremes, NULLs) checking every verdict
// against the row truth, pin the NULL/NaN edge verdicts exactly, and
// verify the pruning bite: on value-clustered data a selective predicate
// must rule the vast majority of morsels all-fail, and the cold pipeline
// must report them as never dispatched.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
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

using namespace equiv;  // NOLINT

using ZoneVerdict = CompiledPredicate::ZoneVerdict;
using CandidateSource = CompiledPredicate::CandidateSource;

std::shared_ptr<const ColumnarTable> Shadow(Database& db) {
  auto shadow = db.ColumnarFor("homes");
  EXPECT_TRUE(shadow.ok());
  return std::move(shadow).value();
}

// Compiles `sql` into a profile predicate, or returns nullopt when it
// does not parse or normalize to a profile. The profile compiler is
// total, so a compile error fails the test.
std::optional<CompiledPredicate> CompileSql(
    const std::string& sql, const Schema& schema,
    const std::shared_ptr<const ColumnarTable>& shadow) {
  auto query = ParseQuery(sql);
  if (!query.ok()) {
    return std::nullopt;
  }
  auto profile = SelectionProfile::FromQuery(query.value(), schema);
  if (!profile.ok()) {
    return std::nullopt;
  }
  auto compiled =
      CompiledPredicate::CompileProfile(profile.value(), schema, shadow);
  if (!compiled.ok()) {
    ADD_FAILURE() << sql << ": " << compiled.status().ToString();
    return std::nullopt;
  }
  return std::move(compiled).value();
}

// Checks every morsel verdict of `compiled` against the per-row truth in
// `matches` (one bool per base row): kAllFail morsels must contain no
// matching row, kAllPass morsels only matching rows, and concatenating
// AppendMorselSurvivors in morsel order must equal the exact match list
// and `Filter`'s output.
void ExpectVerdictsSound(const CompiledPredicate& compiled,
                         const std::vector<bool>& matches,
                         const std::string& context) {
  const size_t n = compiled.num_rows();
  ASSERT_EQ(n, matches.size()) << context;
  std::vector<uint32_t> expected;
  for (size_t r = 0; r < n; ++r) {
    if (matches[r]) {
      expected.push_back(static_cast<uint32_t>(r));
    }
  }
  std::vector<uint32_t> got;
  for (size_t m = 0; m < compiled.num_morsels(); ++m) {
    const size_t begin = m * kMorselRows;
    const size_t end = std::min(n, begin + kMorselRows);
    const ZoneVerdict verdict = compiled.MorselVerdict(m);
    if (verdict != ZoneVerdict::kMixed) {
      const bool want = verdict == ZoneVerdict::kAllPass;
      for (size_t r = begin; r < end; ++r) {
        ASSERT_EQ(matches[r], want)
            << context << ": morsel " << m << " ruled "
            << (want ? "all-pass" : "all-fail") << " but row " << r
            << (matches[r] ? " matches" : " does not match");
      }
    }
    compiled.AppendMorselSurvivors(m, &got);
  }
  EXPECT_EQ(got, expected) << context;
  ParallelOptions parallel;
  parallel.threads = 7;
  const Result<std::vector<uint32_t>> filtered = compiled.Filter(parallel);
  ASSERT_TRUE(filtered.ok()) << context;
  EXPECT_EQ(filtered.value(), got) << context;
}

// ------------------------------------------------------- zone construction

TEST(ZoneMapTest, BuildComputesExactZoneMetadata) {
  const size_t n = 3 * kZoneRows + 500;  // partial tail zone
  const Table table = MakeHomes(n, 71, 0.1, true);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  const std::shared_ptr<const ColumnarTable> shadow = Shadow(db);

  const size_t num_zones = (n + kZoneRows - 1) / kZoneRows;
  for (size_t c = 0; c < shadow->num_columns(); ++c) {
    const ColumnarTable::Column& col = shadow->column(c);
    ASSERT_EQ(col.zones.size(), num_zones) << "col " << c;
    for (size_t z = 0; z < num_zones; ++z) {
      const size_t begin = z * kZoneRows;
      const size_t end = std::min(n, begin + kZoneRows);
      const ZoneEntry& zone = col.zones[z];
      EXPECT_EQ(zone.row_count, end - begin) << "col " << c << " zone " << z;
      uint32_t valid = 0;
      bool has_nan = false;
      bool any = false;
      uint64_t min_bits = 0;
      uint64_t max_bits = 0;
      for (size_t r = begin; r < end; ++r) {
        if (col.IsNull(r)) {
          continue;
        }
        ++valid;
        uint64_t bits = 0;
        if (col.type == ValueType::kInt64) {
          bits = static_cast<uint64_t>(col.i64[r]);
        } else if (col.type == ValueType::kDouble) {
          const double v = col.f64[r];
          if (std::isnan(v)) {
            has_nan = true;
            continue;  // excluded from extrema
          }
          std::memcpy(&bits, &v, sizeof(bits));
        } else {
          bits = col.codes[r];
        }
        // Physical-domain order: int64 and double extrema are tracked in
        // the *typed* order, so compare through the typed lens.
        auto less = [&col](uint64_t a, uint64_t b) {
          if (col.type == ValueType::kInt64) {
            return static_cast<int64_t>(a) < static_cast<int64_t>(b);
          }
          if (col.type == ValueType::kDouble) {
            double da = 0.0;
            double db = 0.0;
            std::memcpy(&da, &a, sizeof(da));
            std::memcpy(&db, &b, sizeof(db));
            return da < db;
          }
          return a < b;
        };
        if (!any) {
          any = true;
          min_bits = bits;
          max_bits = bits;
        } else {
          if (less(bits, min_bits)) {
            min_bits = bits;
          }
          if (less(max_bits, bits)) {
            max_bits = bits;
          }
        }
      }
      EXPECT_EQ(zone.valid_count, valid) << "col " << c << " zone " << z;
      EXPECT_EQ(zone.has_nan, has_nan) << "col " << c << " zone " << z;
      if (any) {
        EXPECT_EQ(zone.min_bits, min_bits) << "col " << c << " zone " << z;
        EXPECT_EQ(zone.max_bits, max_bits) << "col " << c << " zone " << z;
      } else {
        EXPECT_EQ(zone.min_bits, 0u) << "col " << c << " zone " << z;
        EXPECT_EQ(zone.max_bits, 0u) << "col " << c << " zone " << z;
      }
    }
  }
}

// --------------------------------------------------- randomized soundness

TEST(ZoneProverTest, RandomizedVerdictsNeverContradictRowTruth) {
  const Schema schema = FuzzSchema();
  const size_t n = 3 * kZoneRows + 700;
  const Table table = MakeHomes(n, 202, 0.1, true);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  const std::shared_ptr<const ColumnarTable> shadow = Shadow(db);

  Random rng(4242);
  size_t compiled_queries = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string sql = RandomQuery(rng, schema);
    auto query = ParseQuery(sql);
    if (!query.ok()) {
      continue;
    }
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    if (!profile.ok()) {
      continue;
    }
    ++compiled_queries;
    std::vector<bool> matches(n);
    for (size_t r = 0; r < n; ++r) {
      matches[r] = profile.value().MatchesRow(table.row(r), schema);
    }
    // Every candidate source: the cutoff rule, the dense scan, and the
    // posting union of any string value set.
    for (const CandidateSource source :
         {CandidateSource::kCutoff, CandidateSource::kDense,
          CandidateSource::kPostings}) {
      CompiledPredicate::ForceCandidateSourceForTest(source);
      auto compiled =
          CompiledPredicate::CompileProfile(profile.value(), schema, shadow);
      CompiledPredicate::ForceCandidateSourceForTest(
          CandidateSource::kCutoff);
      ASSERT_TRUE(compiled.ok())
          << sql << ": " << compiled.status().ToString();
      ExpectVerdictsSound(compiled.value(), matches, sql);
    }
  }
  EXPECT_GE(compiled_queries, 50u)
      << "too few queries normalized to a profile to be a meaningful gate";
}

// ------------------------------------------------------------- pruning bite

// A value-clustered homes table, rows ordered by price exactly as the
// simgen --sort-by emission produces: every zone's price interval is
// tight and disjoint, neighborhoods arrive in contiguous blocks, and a
// selective predicate should zero out almost every morsel.
Table MakeClusteredHomes(size_t n) {
  Table table(FuzzSchema());
  Random rng(17);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value(kNeighborhoods[i / (n / 6 + 1)]));
    row.push_back(Value(kCities[i % 3]));
    row.push_back(Value(kTypes[i % 3]));
    row.push_back(Value(100000.0 + static_cast<double>(i)));  // price asc
    row.push_back(Value(rng.Uniform(0, 8)));
    row.push_back(Value(0.25 * rng.Uniform(4, 20)));
    row.push_back(Value(rng.UniformReal(300, 8000)));
    row.push_back(Value(1900 + static_cast<int64_t>(i / 200)));  // asc
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

TEST(ZoneProverTest, ClusteredDataPrunesSelectiveMorsels) {
  const size_t n = 16 * kZoneRows;  // 32768 rows, 16 morsels
  const Table table = MakeClusteredHomes(n);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  const std::shared_ptr<const ColumnarTable> shadow = Shadow(db);
  const Schema schema = FuzzSchema();

  struct Case {
    std::string sql;
    std::string attr;
  };
  const std::vector<Case> cases = {
      // ~1% of rows, all inside the first morsel.
      {"SELECT * FROM homes WHERE price <= 100327", "price"},
      // A single ~200-row band in the middle of the range.
      {"SELECT * FROM homes WHERE yearbuilt = 1980", "yearbuilt"},
      // One neighborhood block (~1/6 of the rows, contiguous).
      {"SELECT * FROM homes WHERE neighborhood = 'Ballard'",
       "neighborhood"},
  };
  for (const Case& c : cases) {
    std::optional<CompiledPredicate> compiled =
        CompileSql(c.sql, schema, shadow);
    ASSERT_TRUE(compiled.has_value()) << c.sql;
    std::vector<bool> matches(n);
    auto query = ParseQuery(c.sql);
    ASSERT_TRUE(query.ok());
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    ASSERT_TRUE(profile.ok());
    for (size_t r = 0; r < n; ++r) {
      matches[r] = profile.value().MatchesRow(table.row(r), schema);
    }
    ExpectVerdictsSound(compiled.value(), matches, c.sql);

    size_t all_fail = 0;
    size_t all_pass = 0;
    for (size_t m = 0; m < compiled->num_morsels(); ++m) {
      const ZoneVerdict v = compiled->MorselVerdict(m);
      all_fail += v == ZoneVerdict::kAllFail ? 1 : 0;
      all_pass += v == ZoneVerdict::kAllPass ? 1 : 0;
    }
    // Clustered zones must decide the vast majority of morsels: at most
    // two boundary morsels may stay mixed per contiguous band.
    EXPECT_GE(all_fail + all_pass, compiled->num_morsels() - 2) << c.sql;
    EXPECT_GE(all_fail, compiled->num_morsels() / 2) << c.sql;
  }
}

TEST(ZoneProverTest, ColdPipelineReportsPrunedMorsels) {
  const size_t n = 16 * kZoneRows;
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", MakeClusteredHomes(n)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("homes"));
  const Table& table = *installed;
  const std::shared_ptr<const ColumnarTable> shadow = Shadow(db);

  // ~1% selectivity inside the first morsel: 15 of 16 morsels all-fail.
  const std::string sql = "SELECT * FROM homes WHERE price <= 100327";
  std::optional<CompiledPredicate> compiled =
      CompileSql(sql, FuzzSchema(), shadow);
  ASSERT_TRUE(compiled.has_value());

  for (const size_t threads : {size_t{1}, size_t{7}}) {
    ColdPipelineOptions options;
    options.parallel.threads = threads;
    AUTOCAT_ASSERT_OK_AND_MOVE(
        ColdPipelineResult piped,
        RunColdPipeline(compiled.value(), table, shadow.get(), {},
                        options));
    EXPECT_EQ(piped.result.num_rows(), 328u);
    EXPECT_EQ(piped.timings.morsels, 16u);
    EXPECT_EQ(piped.timings.morsels_pruned, 15u)
        << "threads=" << threads;
    // The surviving morsel is mixed (the 1% boundary cuts through it),
    // so nothing is all-pass here.
    EXPECT_EQ(piped.timings.morsels_all_pass, 0u);
  }

  // The dual shape: a predicate every row passes is all-pass everywhere
  // and nothing is pruned.
  std::optional<CompiledPredicate> all_rows =
      CompileSql("SELECT * FROM homes WHERE price >= 0", FuzzSchema(),
                 shadow);
  ASSERT_TRUE(all_rows.has_value());
  ColdPipelineOptions options;
  options.parallel.threads = 1;
  AUTOCAT_ASSERT_OK_AND_MOVE(
      ColdPipelineResult piped,
      RunColdPipeline(all_rows.value(), table, shadow.get(), {}, options));
  EXPECT_EQ(piped.result.num_rows(), n);
  EXPECT_EQ(piped.timings.morsels_pruned, 0u);
  EXPECT_EQ(piped.timings.morsels_all_pass, 16u);
}

// ------------------------------------------------------------ edge verdicts

// Homes table whose price column is uniformly `price` for every row (or
// NULL when nullopt); everything else is benign.
Table MakeConstantPriceHomes(size_t n, std::optional<double> price) {
  Table table(FuzzSchema());
  Random rng(5);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value(kNeighborhoods[i % 6]));
    row.push_back(Value(kCities[i % 3]));
    row.push_back(Value(kTypes[i % 3]));
    row.push_back(price.has_value() ? Value(*price) : Value());
    row.push_back(Value(rng.Uniform(0, 8)));
    row.push_back(Value(1.5));
    row.push_back(Value(rng.UniformReal(300, 8000)));
    row.push_back(Value(rng.Uniform(1900, 2026)));
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

TEST(ZoneProverTest, AllNullColumnVerdicts) {
  const size_t n = 2 * kZoneRows + 64;
  const Table table = MakeConstantPriceHomes(n, std::nullopt);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  const std::shared_ptr<const ColumnarTable> shadow = Shadow(db);
  const Schema schema = FuzzSchema();

  struct Case {
    std::string sql;
    ZoneVerdict want;
  };
  const std::vector<Case> cases = {
      // Comparisons never match a NULL cell: provably all-fail with
      // valid_count == 0 even though the extrema are meaningless zeros.
      {"SELECT * FROM homes WHERE price > 0", ZoneVerdict::kAllFail},
      {"SELECT * FROM homes WHERE price = 0", ZoneVerdict::kAllFail},
      {"SELECT * FROM homes WHERE price BETWEEN 0 AND 1000000",
       ZoneVerdict::kAllFail},
      {"SELECT * FROM homes WHERE price IN (100000, 200000)",
       ZoneVerdict::kAllFail},
      // NULL tests decide from the counts alone.
      {"SELECT * FROM homes WHERE price IS NULL", ZoneVerdict::kAllPass},
      {"SELECT * FROM homes WHERE price IS NOT NULL",
       ZoneVerdict::kAllFail},
  };
  for (const Case& c : cases) {
    std::optional<CompiledPredicate> compiled =
        CompileSql(c.sql, schema, shadow);
    if (!compiled.has_value()) {
      continue;  // not a profile
    }
    for (size_t m = 0; m < compiled->num_morsels(); ++m) {
      EXPECT_EQ(compiled->MorselVerdict(m), c.want)
          << c.sql << " morsel " << m;
    }
  }
}

TEST(ZoneProverTest, NanExtremaVerdicts) {
  const size_t n = 2 * kZoneRows;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Table table = MakeConstantPriceHomes(n, nan);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  const std::shared_ptr<const ColumnarTable> shadow = Shadow(db);
  const Schema schema = FuzzSchema();

  // Every price cell is NaN, the hostile corner of the zone contract:
  // extrema exclude NaN (an all-NaN zone keeps vacuous zeros) and only
  // has_nan records the poison, so every definite verdict below must
  // survive the has_nan downgrade. The row oracle is MatchesRow itself —
  // profile ranges treat NaN as inside, Value::Compare treats it as equal
  // to everything, and the prover must agree with whichever semantic the
  // compiled shape carries.
  for (const std::string sql :
       {"SELECT * FROM homes WHERE price > 0",
        "SELECT * FROM homes WHERE price < 0",
        "SELECT * FROM homes WHERE price = 12345",
        "SELECT * FROM homes WHERE price >= 12345",
        "SELECT * FROM homes WHERE price <> 12345",
        "SELECT * FROM homes WHERE price BETWEEN 10 AND 20",
        "SELECT * FROM homes WHERE price NOT BETWEEN 10 AND 20",
        "SELECT * FROM homes WHERE price IN (1, 2)",
        "SELECT * FROM homes WHERE price NOT IN (1, 2)",
        "SELECT * FROM homes WHERE price IS NULL"}) {
    std::optional<CompiledPredicate> compiled =
        CompileSql(sql, schema, shadow);
    if (!compiled.has_value()) {
      continue;
    }
    auto query = ParseQuery(sql);
    ASSERT_TRUE(query.ok());
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    ASSERT_TRUE(profile.ok());
    std::vector<bool> matches(n);
    for (size_t r = 0; r < n; ++r) {
      matches[r] = profile.value().MatchesRow(table.row(r), schema);
    }
    ExpectVerdictsSound(compiled.value(), matches, sql);
  }

  // Mixed NaN / normal zone: NaN lands only in the first zone, so the
  // second zone may decide strictly while the first must not contradict.
  Table mixed(FuzzSchema());
  Random rng(6);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value(kNeighborhoods[i % 6]));
    row.push_back(Value(kCities[i % 3]));
    row.push_back(Value(kTypes[i % 3]));
    row.push_back(Value(i < kZoneRows && i % 5 == 0 ? nan : 500000.0));
    row.push_back(Value(rng.Uniform(0, 8)));
    row.push_back(Value(1.5));
    row.push_back(Value(rng.UniformReal(300, 8000)));
    row.push_back(Value(rng.Uniform(1900, 2026)));
    ASSERT_TRUE(mixed.AppendRow(std::move(row)).ok());
  }
  Database mixed_db;
  ASSERT_TRUE(mixed_db.RegisterTable("homes", Table(mixed)).ok());
  const std::shared_ptr<const ColumnarTable> mixed_shadow =
      Shadow(mixed_db);
  for (const std::string sql :
       {"SELECT * FROM homes WHERE price > 600000",
        "SELECT * FROM homes WHERE price = 500000",
        "SELECT * FROM homes WHERE price < 400000",
        "SELECT * FROM homes WHERE price BETWEEN 400000 AND 600000"}) {
    std::optional<CompiledPredicate> compiled =
        CompileSql(sql, schema, mixed_shadow);
    ASSERT_TRUE(compiled.has_value()) << sql;
    auto query = ParseQuery(sql);
    ASSERT_TRUE(query.ok());
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    ASSERT_TRUE(profile.ok());
    std::vector<bool> matches(n);
    for (size_t r = 0; r < n; ++r) {
      matches[r] = profile.value().MatchesRow(mixed.row(r), schema);
    }
    ExpectVerdictsSound(compiled.value(), matches, sql);
  }
}

}  // namespace
}  // namespace autocat
