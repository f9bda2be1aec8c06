// Equivalence gate for the columnar engine's row-selection and view
// consumers.
//
// The profile compiler is total and exact: `CompiledPredicate::Filter`
// must select exactly the rows `SelectionProfile::MatchesRow` keeps, in
// ascending order, at every tested thread count. These tests sweep
// randomized profiles and edge values (NaN cells, -0.0, 2^53 +- 1,
// INT64_MIN/MAX, an empty table, all-NULL columns) over deterministic
// tables, and pin the partitioners and the cost-based categorizer
// reading a selection of a registered table's shadow through a view to
// the same readers over the materialized result, whose view builds a
// compact shadow of its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/categorizer.h"
#include "core/partition.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "workload/counts.h"
#include "workload/workload.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

// Schema, table builder, bit-exact comparison and the randomized query
// generator live in the shared fixture.
using namespace equiv;  // NOLINT

// -------------------------------------------- profile (serving-path) filter

// Compiles `profile` against `shadow` (the shadow of `table`) and
// requires Filter at threads 1 and 7 to select exactly the rows
// MatchesRow keeps.
void ExpectProfileMatchesRows(const Table& table,
                              std::shared_ptr<const ColumnarTable> shadow,
                              const SelectionProfile& profile,
                              const std::string& context) {
  // The profile compiler is total: every profile compiles.
  auto compiled = CompiledPredicate::CompileProfile(profile, table.schema(),
                                                    std::move(shadow));
  ASSERT_TRUE(compiled.ok()) << context << ": "
                             << compiled.status().ToString();
  std::vector<uint32_t> expected;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (profile.MatchesRow(table.row(r), table.schema())) {
      expected.push_back(static_cast<uint32_t>(r));
    }
  }
  for (const size_t threads : {size_t{1}, size_t{7}}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    AUTOCAT_ASSERT_OK_AND_MOVE(std::vector<uint32_t> got,
                               compiled.value().Filter(parallel));
    EXPECT_EQ(got, expected) << context << " (threads=" << threads << ")";
  }
}

std::shared_ptr<const ColumnarTable> ShadowOf(const Table& table) {
  return std::make_shared<const ColumnarTable>(ColumnarTable::Build(table));
}

AttributeCondition Range(double lo, bool lo_inclusive, double hi,
                         bool hi_inclusive) {
  NumericRange range;
  range.lo = lo;
  range.lo_inclusive = lo_inclusive;
  range.hi = hi;
  range.hi_inclusive = hi_inclusive;
  return AttributeCondition::Range(range);
}

TEST(ColumnarEquivalenceTest, CompiledProfileMatchesRowSemantics) {
  const Schema schema = FuzzSchema();
  const Table table = MakeHomes(400, 404, 0.1, true);
  const auto shadow = ShadowOf(table);

  Random rng(555);
  size_t profiles = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string sql = RandomQuery(rng, schema);
    auto query = ParseQuery(sql);
    if (!query.ok()) {
      continue;
    }
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    if (!profile.ok()) {
      continue;
    }
    ++profiles;
    ExpectProfileMatchesRows(table, shadow, profile.value(), sql);
  }
  EXPECT_GE(profiles, 50u)
      << "too few queries normalized to a profile to be a meaningful gate";

  // Edge values a profile can express, over the hostile cells of `table`
  // (NaN and signed-zero prices, int64-extreme bedroom counts, a
  // 2^53 + 1 year), an empty table, and a table whose price and city
  // columns are all NULL.
  Table empty(schema);
  Table all_null(schema);
  Random null_rng(9);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(all_null
                    .AppendRow({Value(kNeighborhoods[i % 6]), Value(),
                                Value(kTypes[i % 3]), Value(),
                                Value(null_rng.Uniform(0, 8)), Value(1.5),
                                Value(null_rng.UniformReal(300, 5000)),
                                Value(null_rng.Uniform(1900, 2026))})
                    .ok());
  }
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t two53 = int64_t{1} << 53;
  const int64_t i64max = std::numeric_limits<int64_t>::max();
  const int64_t i64min = std::numeric_limits<int64_t>::min();
  const std::vector<std::pair<std::string, AttributeCondition>> edges = {
      // NaN cells lie inside every range; -0.0 and 0.0 compare equal.
      {"price", Range(0, false, inf, true)},
      {"price", Range(-inf, true, 0, false)},
      {"price", Range(0, true, 0, true)},
      {"price", Range(-0.0, true, 0, true)},
      {"price", Range(0, true, 1000000, true)},
      {"price", AttributeCondition::ValueSet({Value(0.0)})},
      {"price", AttributeCondition::ValueSet({Value(-0.0)})},
      {"price", AttributeCondition::ValueSet({Value(int64_t{0})})},
      {"price",
       AttributeCondition::ValueSet({Value(100000.0), Value(200000.0)})},
      // 2^53 +- 1: int64 members compare exactly, double ones widen the
      // cell (2^53 + 1 rounds to 2^53).
      {"yearbuilt", AttributeCondition::ValueSet({Value(two53 + 1)})},
      {"yearbuilt", AttributeCondition::ValueSet({Value(two53)})},
      {"yearbuilt", AttributeCondition::ValueSet({Value(two53 - 1)})},
      {"yearbuilt", AttributeCondition::ValueSet(
                        {Value(static_cast<double>(two53))})},
      {"yearbuilt", Range(static_cast<double>(two53), true, inf, true)},
      {"yearbuilt",
       Range(-inf, true, static_cast<double>(two53 - 1), true)},
      // int64 extremes.
      {"bedroomcount", AttributeCondition::ValueSet({Value(i64max)})},
      {"bedroomcount", AttributeCondition::ValueSet({Value(i64min)})},
      {"bedroomcount",
       Range(static_cast<double>(-i64max), true, inf, true)},
      {"bedroomcount", Range(static_cast<double>(i64min), false,
                             static_cast<double>(i64max), false)},
      // All-NULL columns match nothing; unknown attributes never match.
      {"city", AttributeCondition::ValueSet({Value("Seattle")})},
      {"city", AttributeCondition::ValueSet({Value(int64_t{1})})},
      {"bogus", AttributeCondition::ValueSet({Value(int64_t{1})})},
  };
  const std::pair<const char*, const Table*> tables[] = {
      {"hostile", &table}, {"empty", &empty}, {"all-null", &all_null}};
  for (const auto& [name, t] : tables) {
    const auto t_shadow = ShadowOf(*t);
    for (const auto& [attr, cond] : edges) {
      SelectionProfile profile;
      profile.Set(attr, cond);
      ExpectProfileMatchesRows(*t, t_shadow, profile,
                               std::string(name) + ": " + attr + " " +
                                   cond.ToString());
    }
  }
}

// A NaN member compares "equal" to every numeric, so a std::set<Value>
// keeps one only when it holds no other numeric member, and count() then
// matches every non-NULL numeric cell. The kernels compile that as the IN
// list's match-all literal; a string column ignores the NaN member.
TEST(ColumnarEquivalenceTest, NanValueSetMemberCompilesAsMatchAll) {
  const Schema schema = FuzzSchema();
  const Table table = MakeHomes(5000, 404, 0.1, true);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  const Value three(int64_t{3});
  const Value redmond("Redmond");
  const std::vector<std::pair<std::string, std::set<Value>>> sets = {
      {"{NaN}", {nan}},
      {"{NaN,3}", {nan, three}},
      {"{3,NaN}", {three, nan}},
      {"{NaN,'Redmond'}", {nan, redmond}},
      {"{'Redmond',NaN,2.0}", {redmond, nan, Value(2.0)}},
  };
  for (const char* attr : {"price", "bedroomcount", "neighborhood"}) {
    for (const auto& [name, values] : sets) {
      const std::string context = std::string(attr) + " in " + name;
      SelectionProfile profile;
      profile.Set(attr, AttributeCondition::ValueSet(values));
      auto compiled =
          CompiledPredicate::CompileProfile(profile, schema, shadow);
      ASSERT_TRUE(compiled.ok())
          << context << ": " << compiled.status().ToString();
      std::vector<uint32_t> expected;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (profile.MatchesRow(table.row(r), schema)) {
          expected.push_back(static_cast<uint32_t>(r));
        }
      }
      for (const size_t threads : {size_t{1}, size_t{7}}) {
        ParallelOptions parallel;
        parallel.threads = threads;
        AUTOCAT_ASSERT_OK_AND_MOVE(std::vector<uint32_t> got,
                                   compiled.value().Filter(parallel));
        EXPECT_EQ(got, expected)
            << context << " (threads=" << threads << ")";
      }
    }
  }
}

// Columns are typed by construction; only a column-backed table whose
// schema misdeclares its backing's types, against
// Table::FromColumnar's precondition, can hand ColumnarTable::Build a
// mistyped cell, and Build refuses to shadow it.
TEST(ColumnarEquivalenceDeathTest, MixedTypeColumnDiesInBuild) {
  const Table typed = MakeHomes(40, 9, 0.0, false);
  std::vector<ColumnDef> defs;
  for (size_t c = 0; c < typed.num_columns(); ++c) {
    defs.push_back(typed.schema().column(c));
  }
  // The int64 `bedroomcount` cells read as a string column's.
  const size_t beds = typed.schema().ColumnIndex("bedroomcount").value();
  defs[beds] = ColumnDef("bedroomcount", ValueType::kString,
                         ColumnKind::kCategorical);
  auto schema = Schema::Create(std::move(defs));
  ASSERT_TRUE(schema.ok());
  const Table mistyped =
      Table::FromColumnar(std::move(schema).value(), ShadowOf(typed));
  EXPECT_DEATH((void)ColumnarTable::Build(mistyped),
               "columnar\\.cc.*AUTOCAT_CHECK failed");
}

// ------------------------------------------------- view-based consumers

struct ViewFixture {
  Table table;
  Database db;
  std::shared_ptr<const ColumnarTable> shadow;
  TableView view;       // filtered + projected
  Table materialized;   // SelectProjectRows of the view's rows of `table`
  std::vector<size_t> all_tuples;

  explicit ViewFixture(bool projected)
      : table(MakeHomes(350, 42, 0.07, true)) {
    EXPECT_TRUE(db.RegisterTable("homes", Table(table)).ok());
    auto shadow_or = db.ColumnarFor("homes");
    EXPECT_TRUE(shadow_or.ok());
    shadow = std::move(shadow_or).value();
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < table.num_rows(); r += 2) {
      rows.push_back(r);  // every other row, ascending
    }
    const std::vector<std::string> columns =
        projected ? std::vector<std::string>{"neighborhood", "price",
                                             "bedroomcount", "yearbuilt"}
                  : std::vector<std::string>{};
    auto copy = SelectProjectRows(
        table, std::vector<size_t>(rows.begin(), rows.end()), columns);
    EXPECT_TRUE(copy.ok());
    materialized = std::move(copy).value();
    auto view_or =
        TableView::Create(*db.GetTable("homes").value(), shadow,
                          std::move(rows), columns);
    EXPECT_TRUE(view_or.ok());
    view = std::move(view_or).value();
    for (size_t i = 0; i < view.num_rows(); ++i) {
      all_tuples.push_back(i);
    }
  }
};

// The view as a table reads, without copying a cell, exactly the builder
// rows it selects, in selection order and projection order.
TEST(ColumnarEquivalenceTest, ViewAsTableMatchesTheBuilderRows) {
  const ViewFixture f(true);
  std::vector<size_t> rows;
  for (size_t r = 0; r < f.table.num_rows(); r += 2) {
    rows.push_back(r);
  }
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const Table expected,
      SelectProjectRows(f.table, rows,
                        {"neighborhood", "price", "bedroomcount",
                         "yearbuilt"}));
  const Table as_table = f.view.AsTable();
  EXPECT_TRUE(as_table.has_selection());
  EXPECT_EQ(as_table.columnar_backing(), f.shadow);
  ExpectTablesBitIdentical(expected, as_table, "view as a table");
}

// Rank codes: a built shadow keys every int64 and double row by its
// cell's rank among the column's distinct values under the declared
// kind. Numeric int64 compares as double (2^53 and 2^53 + 1 share a
// code), categorical int64 exactly, doubles by `<` (-0.0 and 0.0 share
// one); NULL and NaN cells get kNoKey; codes are dense. A selection table
// gets the codes its gathered rows get.
TEST(ColumnarEquivalenceTest, RankCodesOrderAsValuesUnderTheDeclaredKind) {
  auto schema_or = Schema::Create({
      ColumnDef("i_num", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("i_cat", ValueType::kInt64, ColumnKind::kCategorical),
      ColumnDef("d_num", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("d_cat", ValueType::kDouble, ColumnKind::kCategorical),
      ColumnDef("s", ValueType::kString, ColumnKind::kCategorical),
  });
  ASSERT_TRUE(schema_or.ok());
  const Schema schema = std::move(schema_or).value();
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Value ints[] = {Value(kTwo53),
                        Value(kTwo53 + 1),
                        Value(kTwo53 - 1),
                        Value(std::numeric_limits<int64_t>::min()),
                        Value(std::numeric_limits<int64_t>::max()),
                        Value(int64_t{0}),
                        Value(int64_t{-5}),
                        Value()};
  const Value doubles[] = {Value(std::numeric_limits<double>::quiet_NaN()),
                           Value(-0.0),
                           Value(0.0),
                           Value(kInf),
                           Value(-kInf),
                           Value(1.5),
                           Value(-2.25),
                           Value()};
  Table rows(schema);
  Random rng(91);
  for (size_t i = 0; i < 300; ++i) {
    const Value& i64 = ints[rng.Uniform(0, 7)];
    const Value& f64 = doubles[rng.Uniform(0, 7)];
    ASSERT_TRUE(rows.AppendRow({i64, ints[rng.Uniform(0, 7)], f64,
                                doubles[rng.Uniform(0, 7)],
                                rng.Bernoulli(0.1)
                                    ? Value()
                                    : Value(kNeighborhoods[rng.Uniform(0, 5)])})
                    .ok());
  }
  const ColumnarTable shadow = ColumnarTable::Build(rows);
  for (size_t c = 0; c < 4; ++c) {
    const std::string& name = schema.column(c).name;
    const bool numeric = schema.column(c).kind == ColumnKind::kNumeric;
    const auto less = [numeric](const Value& a, const Value& b) {
      return numeric ? a.AsDouble() < b.AsDouble() : a < b;
    };
    const ColumnarTable::Column& column = shadow.column(c);
    ASSERT_EQ(column.codes.size(), rows.num_rows()) << name;
    std::vector<size_t> keyed;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      const Value& v = rows.row(r)[c];
      if (v.is_null() || (v.is_double() && std::isnan(v.double_value()))) {
        EXPECT_EQ(column.codes[r], kNoKey) << name << " row " << r;
      } else {
        keyed.push_back(r);
      }
    }
    ASSERT_FALSE(keyed.empty()) << name;
    // Code order is value order, and equal codes are equal values.
    for (const size_t a : keyed) {
      for (const size_t b : keyed) {
        const Value& va = rows.row(a)[c];
        const Value& vb = rows.row(b)[c];
        ASSERT_EQ(column.codes[a] < column.codes[b], less(va, vb))
            << name << " rows " << a << ", " << b;
      }
    }
    // Dense: the codes are exactly 0 .. distinct - 1.
    std::set<uint32_t> codes;
    size_t distinct = 0;
    std::vector<Value> values;
    for (const size_t r : keyed) {
      codes.insert(column.codes[r]);
      values.push_back(rows.row(r)[c]);
    }
    std::sort(values.begin(), values.end(), less);
    for (size_t i = 0; i < values.size(); ++i) {
      distinct += (i == 0 || less(values[i - 1], values[i])) ? 1 : 0;
    }
    EXPECT_EQ(codes.size(), distinct) << name;
    EXPECT_EQ(*codes.rbegin() + 1, distinct) << name;
  }
  // The pinned ties: 2^53 and 2^53 + 1 share a numeric code, not a
  // categorical one; -0.0 and 0.0 share a code under either kind.
  const auto code_of = [&](size_t c, const Value& v) {
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      if (BitIdentical(rows.row(r)[c], v)) {
        return shadow.column(c).codes[r];
      }
    }
    ADD_FAILURE() << v.ToString() << " not drawn in column " << c;
    return kNoKey;
  };
  EXPECT_EQ(code_of(0, Value(kTwo53)), code_of(0, Value(kTwo53 + 1)));
  EXPECT_NE(code_of(1, Value(kTwo53)), code_of(1, Value(kTwo53 + 1)));
  EXPECT_EQ(code_of(2, Value(-0.0)), code_of(2, Value(0.0)));
  EXPECT_EQ(code_of(3, Value(-0.0)), code_of(3, Value(0.0)));

  // A selection table (rows out of order, some twice) builds the codes of
  // the rows it gathers.
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", Table(rows)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("t"));
  std::vector<uint32_t> picked;
  for (uint32_t r = 0; r < rows.num_rows(); r += 3) {
    picked.push_back(static_cast<uint32_t>(rows.num_rows()) - 1 - r);
    picked.push_back(r / 2);
  }
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const TableView view,
      TableView::Create(*installed, nullptr, picked, {}));
  const Table selection = view.AsTable();
  ASSERT_TRUE(selection.has_selection());
  const ColumnarTable from_selection = ColumnarTable::Build(selection);
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const Table gathered,
      SelectProjectRows(rows,
                        std::vector<size_t>(picked.begin(), picked.end()),
                        {}));
  const ColumnarTable from_rows = ColumnarTable::Build(gathered);
  ASSERT_EQ(from_selection.num_rows(), picked.size());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnSpan<uint32_t>& a = from_selection.column(c).codes;
    const ColumnSpan<uint32_t>& b = from_rows.column(c).codes;
    ASSERT_EQ(a.size(), b.size()) << schema.column(c).name;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << schema.column(c).name;
  }
}

WorkloadStats FuzzStats() {
  const std::vector<std::string> sqls = {
      "SELECT * FROM homes WHERE price BETWEEN 100000 AND 200000",
      "SELECT * FROM homes WHERE price <= 300000 AND neighborhood IN "
      "('Redmond', 'Bellevue')",
      "SELECT * FROM homes WHERE bedroomcount >= 3",
      "SELECT * FROM homes WHERE propertytype = 'Condo' AND price <= "
      "250000",
      "SELECT * FROM homes WHERE yearbuilt >= 1990 AND squarefootage "
      "BETWEEN 1000 AND 3000",
      "SELECT * FROM homes WHERE neighborhood = 'Seattle' AND "
      "bedroomcount BETWEEN 2 AND 4",
  };
  const Schema schema = FuzzSchema();
  const Workload workload = Workload::Parse(sqls, schema, nullptr);
  EXPECT_EQ(workload.size(), sqls.size());
  WorkloadStatsOptions options;
  options.split_intervals = {{"price", 5000},
                             {"squarefootage", 100},
                             {"yearbuilt", 5},
                             {"bedroomcount", 1},
                             {"bathcount", 1}};
  auto stats = WorkloadStats::Build(workload, schema, options);
  EXPECT_TRUE(stats.ok());
  return std::move(stats).value();
}

TEST(ColumnarEquivalenceTest, PartitionersViewVsTable) {
  const WorkloadStats stats = FuzzStats();
  for (const bool projected : {false, true}) {
    const ViewFixture f(projected);
    const std::string tag = projected ? " (projected)" : " (all columns)";
    // The reference: a view of the materialized cells, read through the
    // compact shadow the view builds of them.
    const TableView compact = TableView::All(f.materialized, nullptr);

    for (const std::string attr : {"neighborhood", "price"}) {
      const bool numeric = attr == "price";
      if (numeric) {
        const CategorizerOptions options;
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto from_table,
            PartitionNumeric(compact, f.all_tuples, attr, stats,
                             options, nullptr));
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto from_view,
            PartitionNumeric(f.view, f.all_tuples, attr, stats, options,
                             nullptr));
        ExpectPartitionsIdentical(from_table, from_view,
                                  "PartitionNumeric " + attr + tag);

        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto ew_table,
            PartitionNumericEquiWidth(compact, f.all_tuples, attr,
                                      25000, nullptr));
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto ew_view,
            PartitionNumericEquiWidth(f.view, f.all_tuples, attr, 25000,
                                      nullptr));
        ExpectPartitionsIdentical(ew_table, ew_view,
                                  "PartitionNumericEquiWidth " + attr +
                                      tag);
      } else {
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto from_table,
            PartitionCategorical(compact, f.all_tuples, attr,
                                 stats));
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto from_view,
            PartitionCategorical(f.view, f.all_tuples, attr, stats));
        ExpectPartitionsIdentical(from_table, from_view,
                                  "PartitionCategorical " + attr + tag);

        // Same seed on both sides: the shuffle order must match too.
        Random rng_table(7);
        Random rng_view(7);
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto arb_table,
            PartitionCategoricalArbitrary(compact, f.all_tuples,
                                          attr, &rng_table));
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto arb_view,
            PartitionCategoricalArbitrary(f.view, f.all_tuples, attr,
                                          &rng_view));
        ExpectPartitionsIdentical(arb_table, arb_view,
                                  "PartitionCategoricalArbitrary " + attr +
                                      tag);
      }
    }
  }
}

// A NaN cell joins no numeric bucket, exactly as a NULL does not and as
// CategoryLabel::Matches answers. Both numeric partitioners, read through
// a view of the row table (which builds its shadow) and of the
// column-backed table a Database installs, must return a valid partition
// whose every placed tuple matches its label, and the two must agree.
TEST(ColumnarEquivalenceTest, NumericPartitionsPlaceNoNaNCell) {
  const WorkloadStats stats = FuzzStats();
  const Table table = MakeHomes(3000, 909, 0.05, true);
  const Table backed = Table::FromColumnar(table.schema(), ShadowOf(table));
  const TableView of_rows = TableView::All(table, nullptr);
  const TableView columnar = TableView::All(backed, nullptr);
  std::vector<size_t> all_tuples(table.num_rows());
  for (size_t i = 0; i < all_tuples.size(); ++i) {
    all_tuples[i] = i;
  }

  const std::pair<std::string, double> kAttrs[] = {
      {"price", 25000}, {"bathcount", 0.5}, {"squarefootage", 500}};
  for (const auto& [attr, width] : kAttrs) {
    const size_t col = table.schema().ColumnIndex(attr).value();
    auto expect_valid = [&](const std::vector<PartitionCategory>& parts,
                            const std::string& context) {
      const Status valid = ValidateNumericPartition(parts);
      EXPECT_TRUE(valid.ok()) << context << ": " << valid.ToString();
      for (const PartitionCategory& part : parts) {
        for (const size_t t : part.tuples) {
          EXPECT_TRUE(part.label.Matches(table.CellValue(t, col)))
              << context << ": tuple " << t << " ("
              << table.CellValue(t, col).ToString() << ") outside "
              << part.label.ToString();
        }
      }
    };
    const CategorizerOptions options;
    AUTOCAT_ASSERT_OK_AND_MOVE(
        auto cost_rows,
        PartitionNumeric(of_rows, all_tuples, attr, stats, options, nullptr));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        auto cost_columnar,
        PartitionNumeric(columnar, all_tuples, attr, stats, options,
                         nullptr));
    expect_valid(cost_rows, "PartitionNumeric rows " + attr);
    expect_valid(cost_columnar, "PartitionNumeric columnar " + attr);
    ExpectPartitionsIdentical(cost_rows, cost_columnar,
                              "PartitionNumeric " + attr);

    AUTOCAT_ASSERT_OK_AND_MOVE(
        auto ew_rows,
        PartitionNumericEquiWidth(of_rows, all_tuples, attr, width, nullptr));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        auto ew_columnar,
        PartitionNumericEquiWidth(columnar, all_tuples, attr, width,
                                  nullptr));
    expect_valid(ew_rows, "PartitionNumericEquiWidth rows " + attr);
    expect_valid(ew_columnar, "PartitionNumericEquiWidth columnar " + attr);
    ExpectPartitionsIdentical(ew_rows, ew_columnar,
                              "PartitionNumericEquiWidth " + attr);
  }
}

TEST(ColumnarEquivalenceTest, CostBasedCategorizerViewVsTable) {
  const WorkloadStats stats = FuzzStats();
  const ViewFixture f(false);
  CategorizerOptions options;
  options.candidate_attributes = {"neighborhood", "propertytype", "price",
                                  "bedroomcount"};
  options.attribute_usage_threshold = 0.0;
  const CostBasedCategorizer categorizer(&stats, options);

  auto query = ParseQuery("SELECT * FROM homes WHERE price <= 900000");
  ASSERT_TRUE(query.ok());
  auto profile = SelectionProfile::FromQuery(query.value(), FuzzSchema());
  ASSERT_TRUE(profile.ok());

  // The reference reads the materialized cells through their own shadow.
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const CategoryTree from_table,
      categorizer.Categorize(TableView::All(f.materialized, nullptr),
                             f.materialized, &profile.value()));
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const CategoryTree from_view,
      categorizer.Categorize(f.view, f.materialized, &profile.value()));

  EXPECT_EQ(from_table.level_attributes(), from_view.level_attributes());
  ASSERT_EQ(from_table.num_nodes(), from_view.num_nodes());
  for (size_t id = 0; id < from_table.num_nodes(); ++id) {
    const CategoryNode& a = from_table.node(static_cast<NodeId>(id));
    const CategoryNode& b = from_view.node(static_cast<NodeId>(id));
    EXPECT_EQ(a.parent, b.parent) << "node " << id;
    EXPECT_EQ(a.children, b.children) << "node " << id;
    EXPECT_EQ(a.tuples, b.tuples) << "node " << id;
    EXPECT_EQ(a.label.ToString(), b.label.ToString()) << "node " << id;
  }

  // A mismatched view is rejected rather than silently miscombined.
  const ViewFixture other(true);
  EXPECT_FALSE(
      categorizer.Categorize(other.view, f.materialized, &profile.value())
          .ok());
}

}  // namespace
}  // namespace autocat
