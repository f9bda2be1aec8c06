// Tests for predicate evaluation and the selection/projection executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/kernels.h"
#include "exec/predicate.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"

#include "row_oracle.h"

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

Table HomesTable() {
  Table table(HomesSchema());
  EXPECT_TRUE(
      table.AppendRow({Value("Redmond"), Value(210000), Value(3)}).ok());
  EXPECT_TRUE(
      table.AppendRow({Value("Bellevue"), Value(250000), Value(4)}).ok());
  EXPECT_TRUE(
      table.AppendRow({Value("Seattle"), Value(180000), Value(2)}).ok());
  EXPECT_TRUE(table.AppendRow({Value("Seattle"), Value(), Value(5)}).ok());
  return table;
}

Result<bool> Eval(const std::string& predicate, const Row& row) {
  auto expr = ParseExpression(predicate);
  if (!expr.ok()) {
    return expr.status();
  }
  return EvaluatePredicate(*expr.value(), row, HomesSchema());
}

const Row kRedmond = {Value("Redmond"), Value(210000), Value(3)};
const Row kNullPrice = {Value("Seattle"), Value(), Value(5)};

TEST(PredicateTest, Comparisons) {
  EXPECT_TRUE(Eval("price = 210000", kRedmond).value());
  EXPECT_FALSE(Eval("price = 210001", kRedmond).value());
  EXPECT_TRUE(Eval("price <> 210001", kRedmond).value());
  EXPECT_TRUE(Eval("price < 300000", kRedmond).value());
  EXPECT_TRUE(Eval("price <= 210000", kRedmond).value());
  EXPECT_FALSE(Eval("price > 210000", kRedmond).value());
  EXPECT_TRUE(Eval("price >= 210000", kRedmond).value());
  EXPECT_TRUE(Eval("neighborhood = 'Redmond'", kRedmond).value());
}

TEST(PredicateTest, NullNeverMatchesComparisons) {
  EXPECT_FALSE(Eval("price = 210000", kNullPrice).value());
  EXPECT_FALSE(Eval("price <> 210000", kNullPrice).value());
  EXPECT_FALSE(Eval("price < 1000000", kNullPrice).value());
  EXPECT_FALSE(Eval("price BETWEEN 0 AND 9999999", kNullPrice).value());
  EXPECT_FALSE(Eval("price IN (210000)", kNullPrice).value());
}

TEST(PredicateTest, IsNull) {
  EXPECT_TRUE(Eval("price IS NULL", kNullPrice).value());
  EXPECT_FALSE(Eval("price IS NULL", kRedmond).value());
  EXPECT_TRUE(Eval("price IS NOT NULL", kRedmond).value());
}

TEST(PredicateTest, InList) {
  EXPECT_TRUE(
      Eval("neighborhood IN ('Redmond', 'Bellevue')", kRedmond).value());
  EXPECT_FALSE(Eval("neighborhood IN ('Seattle')", kRedmond).value());
  EXPECT_TRUE(Eval("neighborhood NOT IN ('Seattle')", kRedmond).value());
  EXPECT_TRUE(Eval("bedroomcount IN (1, 3, 5)", kRedmond).value());
}

TEST(PredicateTest, Between) {
  EXPECT_TRUE(Eval("price BETWEEN 200000 AND 220000", kRedmond).value());
  EXPECT_TRUE(Eval("price BETWEEN 210000 AND 210000", kRedmond).value());
  EXPECT_FALSE(Eval("price BETWEEN 220000 AND 300000", kRedmond).value());
  EXPECT_TRUE(
      Eval("price NOT BETWEEN 220000 AND 300000", kRedmond).value());
}

TEST(PredicateTest, Logical) {
  EXPECT_TRUE(
      Eval("price > 100 AND bedroomcount = 3 AND neighborhood = 'Redmond'",
           kRedmond)
          .value());
  EXPECT_FALSE(Eval("price > 100 AND bedroomcount = 4", kRedmond).value());
  EXPECT_TRUE(Eval("bedroomcount = 4 OR price = 210000", kRedmond).value());
  EXPECT_FALSE(Eval("bedroomcount = 4 OR price = 0", kRedmond).value());
}

TEST(PredicateTest, TypeMismatchIsAnError) {
  EXPECT_FALSE(Eval("price = 'expensive'", kRedmond).ok());
  EXPECT_FALSE(Eval("neighborhood < 5", kRedmond).ok());
  EXPECT_FALSE(Eval("neighborhood IN (1, 2)", kRedmond).ok());
}

TEST(PredicateTest, UnknownColumnIsAnError) {
  EXPECT_FALSE(Eval("bogus = 1", kRedmond).ok());
}

// ---------------------------------------------------------------- database

TEST(DatabaseTest, RegisterAndLookup) {
  Database db;
  ASSERT_TRUE(db.RegisterTable("Homes", HomesTable()).ok());
  EXPECT_TRUE(db.HasTable("homes"));
  EXPECT_TRUE(db.GetTable("HOMES").ok());
  EXPECT_FALSE(db.GetTable("other").ok());
  EXPECT_FALSE(db.RegisterTable("homes", HomesTable()).ok());
  db.PutTable("homes", Table(HomesSchema()));  // replace allowed
  EXPECT_EQ(db.GetTable("homes").value()->num_rows(), 0u);
  EXPECT_EQ(db.num_tables(), 1u);
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"homes"});
}

// Each table's columnar shadow is built with the table: ColumnarFor is a
// lookup, a copy shares the immutable shadow, and PutTable swaps in the
// shadow of the new contents.
TEST(DatabaseTest, ShadowIsBuiltWithTheTable) {
  Database db;
  ASSERT_TRUE(db.RegisterTable("Homes", HomesTable()).ok());
  const auto shadow = db.ColumnarFor("homes");
  ASSERT_TRUE(shadow.ok());
  ASSERT_NE(shadow.value(), nullptr);
  EXPECT_EQ(shadow.value()->num_rows(), 4u);
  EXPECT_EQ(db.ColumnarFor("homes").value(), shadow.value());
  EXPECT_EQ(db.ColumnarFor("HOMES").value(), shadow.value());

  const Database copy = db;
  EXPECT_EQ(copy.ColumnarFor("Homes").value(), shadow.value());

  db.PutTable("Homes", Table(HomesSchema()));
  const auto replaced = db.ColumnarFor("homes");
  ASSERT_TRUE(replaced.ok());
  EXPECT_NE(replaced.value(), shadow.value());
  EXPECT_EQ(replaced.value()->num_rows(), 0u);
  EXPECT_EQ(copy.ColumnarFor("homes").value(), shadow.value());

  EXPECT_EQ(db.ColumnarFor("other").status().code(), StatusCode::kNotFound);
}

// The pointer-stability contract documented on Database::GetTable: the
// serving layer holds table pointers across PutTable/RegisterTable calls
// and relies on the address never moving.
TEST(DatabaseTest, GetTablePointerIsStableAcrossMutations) {
  Database db;
  ASSERT_TRUE(db.RegisterTable("Homes", HomesTable()).ok());
  auto homes = db.GetTable("homes");
  ASSERT_TRUE(homes.ok());
  const Table* const before = homes.value();
  const size_t rows_before = before->num_rows();

  // Registering other tables never moves an existing one.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        db.RegisterTable("t" + std::to_string(i), HomesTable()).ok());
  }
  ASSERT_TRUE(db.GetTable("homes").ok());
  EXPECT_EQ(db.GetTable("homes").value(), before);

  // PutTable replaces the contents in place: same address, new data.
  db.PutTable("Homes", Table(HomesSchema()));
  ASSERT_TRUE(db.GetTable("homes").ok());
  EXPECT_EQ(db.GetTable("homes").value(), before);
  EXPECT_EQ(before->num_rows(), 0u);
  EXPECT_NE(before->num_rows(), rows_before);

  // And another PutTable restores rows behind the very same pointer.
  db.PutTable("Homes", HomesTable());
  EXPECT_EQ(db.GetTable("homes").value(), before);
  EXPECT_EQ(before->num_rows(), rows_before);
}

// 23 rows cycling through cells with sharp comparison semantics: NULL,
// NaN, -0.0 next to 0.0, "" next to NULL, and the int64 extremes.
Table HostileTable() {
  auto schema = Schema::Create({
      ColumnDef("s", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("d", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("i", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  const Value strings[] = {Value(""), Value("a"), Value(), Value("b")};
  const Value doubles[] = {Value(std::numeric_limits<double>::quiet_NaN()),
                           Value(-0.0), Value(0.0), Value(), Value(2.5)};
  const Value ints[] = {Value(std::numeric_limits<int64_t>::min()),
                        Value(std::numeric_limits<int64_t>::max()),
                        Value(int64_t{0}), Value(), Value(int64_t{-3}),
                        Value(int64_t{7})};
  Table table(std::move(schema).value());
  for (size_t r = 0; r < 23; ++r) {
    EXPECT_TRUE(
        table.AppendRow({strings[r % 4], doubles[r % 5], ints[r % 6]}).ok());
  }
  return table;
}

// Same dynamic type, doubles by representation (NaN == NaN, -0.0 != 0.0).
bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return false;
  }
  if (a.is_double()) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.is_null() || a == b;
}

void ExpectCellsBitIdentical(const Table& want, const Table& got,
                             const std::string& context) {
  ASSERT_TRUE(want.schema() == got.schema()) << context;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.num_columns(); ++c) {
      EXPECT_TRUE(BitIdentical(want.CellValue(r, c), got.CellValue(r, c)))
          << context << " cell " << r << "," << c << ": "
          << want.CellValue(r, c).ToString() << " vs "
          << got.CellValue(r, c).ToString();
    }
  }
}

// What `query` must return over the builder `rows`: the rows FilterTable
// keeps, in row order, projected to the select list, each cell copied
// from `rows`; or the error the row path raises first.
Result<Table> ExpectedResult(const Table& rows, const SelectQuery& query) {
  AUTOCAT_ASSIGN_OR_RETURN(const std::vector<size_t> indices,
                           FilterTable(rows, query.where.get()));
  return SelectProjectRows(rows, indices, query.columns);
}

// Whatever a Database is given — a row table, a table selecting from
// another's shadow, or a FromColumnar table — it holds one column-backed
// table whose backing is the shadow ColumnarFor returns. A FromColumnar
// table is stored as it is; a selection is gathered into a shadow of its
// own rows and never shares the one it selects from.
TEST(DatabaseTest, EveryInstalledTableIsColumnBacked) {
  const Table rows = HostileTable();
  const auto parent = std::make_shared<const ColumnarTable>(
      ColumnarTable::Build(rows));
  const Table backed = Table::FromColumnar(rows.schema(), parent);
  const auto chosen = Table::Select(backed, nullptr, {5, 0, 3, 3, 22, 9},
                                    {"i", "s"});
  ASSERT_TRUE(chosen.ok());
  const Table& selected = chosen.value();
  ASSERT_TRUE(selected.has_selection());

  const std::pair<const char*, const Table*> inputs[] = {
      {"rows", &rows}, {"selection", &selected}, {"columnar", &backed}};
  for (const auto& [name, input] : inputs) {
    for (const bool put : {false, true}) {
      const std::string context =
          std::string(name) + (put ? " PutTable" : " RegisterTable");
      Database db;
      if (put) {
        db.PutTable("t", *input);
      } else {
        ASSERT_TRUE(db.RegisterTable("t", *input).ok()) << context;
      }
      const auto got = db.GetTable("T");
      ASSERT_TRUE(got.ok()) << context;
      EXPECT_FALSE(got.value()->has_rows()) << context;
      EXPECT_FALSE(got.value()->has_selection()) << context;
      const auto shadow = db.ColumnarFor("t");
      ASSERT_TRUE(shadow.ok()) << context;
      ASSERT_NE(shadow.value(), nullptr) << context;
      EXPECT_EQ(shadow.value(), got.value()->columnar_backing()) << context;
      EXPECT_EQ(shadow.value()->num_rows(), input->num_rows()) << context;
      if (input == &backed) {
        EXPECT_EQ(shadow.value(), parent) << context;
      } else {
        EXPECT_NE(shadow.value(), parent) << context;
      }
      ExpectCellsBitIdentical(*input, *got.value(), context);
    }
  }
}

// The row oracle over an installed table: ExecuteSql synthesizes each
// row from the shadow and must answer what the same filter, selection and
// projection answer over the original row table, errors included.
TEST(DatabaseTest, ExecuteSqlMatchesTheOriginalRowTable) {
  const Table rows = HostileTable();
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", rows).ok());
  const char* const kSqls[] = {
      "SELECT * FROM t",
      "SELECT * FROM t WHERE d = 0",
      "SELECT * FROM t WHERE d < 1 AND i <= 7",
      "SELECT d, s FROM t WHERE d BETWEEN 0 AND 3",
      "SELECT * FROM t WHERE s = ''",
      "SELECT i FROM t WHERE s IN ('', 'b') OR d IS NULL",
      "SELECT * FROM t WHERE s IS NULL AND i IS NOT NULL",
      "SELECT s FROM t WHERE s <> '' AND i > 0",
      "SELECT * FROM t WHERE i = 9223372036854775807",
      "SELECT * FROM t WHERE s > 5",  // a type error on the first row
  };
  for (const char* sql : kSqls) {
    const auto query = ParseQuery(sql);
    ASSERT_TRUE(query.ok()) << sql;
    const Result<Table> want = ExpectedResult(rows, query.value());
    const Result<Table> got = ExecuteSql(sql, db);
    ASSERT_EQ(want.ok(), got.ok()) << sql;
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << sql;
      continue;
    }
    EXPECT_TRUE(got.value().has_selection()) << sql;
    ExpectCellsBitIdentical(want.value(), got.value(), sql);
  }
}

// ---------------------------------------------------------------- executor

TEST(ExecutorTest, SelectStarNoWhere) {
  Database db;
  db.PutTable("homes", HomesTable());
  const auto result = ExecuteSql("SELECT * FROM homes", db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 4u);
  EXPECT_EQ(result->num_columns(), 3u);
}

TEST(ExecutorTest, Filter) {
  Database db;
  db.PutTable("homes", HomesTable());
  const auto result = ExecuteSql(
      "SELECT * FROM homes WHERE price BETWEEN 200000 AND 260000", db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(ExecutorTest, FilterAndProject) {
  Database db;
  db.PutTable("homes", HomesTable());
  const auto result = ExecuteSql(
      "SELECT neighborhood FROM homes WHERE bedroomcount >= 4", db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->num_columns(), 1u);
  EXPECT_EQ(result->CellValue(0, 0).string_value(), "Bellevue");
}

TEST(ExecutorTest, EmptyResultKeepsSchema) {
  Database db;
  db.PutTable("homes", HomesTable());
  const auto result =
      ExecuteSql("SELECT * FROM homes WHERE price > 99999999", db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(result->num_columns(), 3u);
}

TEST(ExecutorTest, MissingTableErrors) {
  Database db;
  EXPECT_FALSE(ExecuteSql("SELECT * FROM nothere", db).ok());
}

TEST(ExecutorTest, BadSqlErrors) {
  Database db;
  db.PutTable("homes", HomesTable());
  EXPECT_FALSE(ExecuteSql("SELEC * FROM homes", db).ok());
  EXPECT_FALSE(ExecuteSql("SELECT * FROM homes WHERE", db).ok());
}

TEST(ExecutorTest, PredicateErrorSurfaces) {
  Database db;
  db.PutTable("homes", HomesTable());
  EXPECT_FALSE(
      ExecuteSql("SELECT * FROM homes WHERE neighborhood > 5", db).ok());
}

// A result is a selection over the installed table's shadow: no cell is
// copied out of it.
TEST(ExecutorTest, ResultIsASelectionOverTheShadow) {
  Database db;
  db.PutTable("homes", HomesTable());
  const auto shadow = db.ColumnarFor("homes");
  ASSERT_TRUE(shadow.ok());
  for (const char* sql :
       {"SELECT * FROM homes", "SELECT price FROM homes WHERE price > 0",
        "SELECT * FROM homes WHERE price > 99999999"}) {
    const auto result = ExecuteSql(sql, db);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_FALSE(result->has_rows()) << sql;
    EXPECT_TRUE(result->has_selection()) << sql;
    EXPECT_EQ(result->columnar_backing(), shadow.value()) << sql;
  }
}

// Over NULL, NaN, -0.0, "" and the int64 extremes, a result's cells are
// the builder rows' cells bit for bit, in row order and select-list
// order.
TEST(ExecutorTest, ResultCellsAreTheBuilderRows) {
  const Table rows = HostileTable();
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", rows).ok());
  const char* const kSqls[] = {
      "SELECT * FROM t",
      "SELECT * FROM t WHERE i >= 0",
      "SELECT d FROM t WHERE s IS NOT NULL",
      "SELECT i, s, d FROM t",
      "SELECT d, i FROM t WHERE d = 0",
      "SELECT * FROM t WHERE i > 9223372036854775807",
      "SELECT s FROM t WHERE i > 9223372036854775807",
  };
  for (const char* sql : kSqls) {
    const auto query = ParseQuery(sql);
    ASSERT_TRUE(query.ok()) << sql;
    const auto want = ExpectedResult(rows, query.value());
    ASSERT_TRUE(want.ok()) << sql;
    const auto got = ExecuteSql(sql, db);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    ExpectCellsBitIdentical(want.value(), got.value(), sql);
  }
  const auto empty = ExecuteSql("SELECT s FROM t WHERE i > 9223372036854775807",
                                db);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(empty->schema().column(0).name, "s");
}

// Every error keeps its code: an unknown table, an unknown or duplicate
// select-list column, and a row's evaluation error.
TEST(ExecutorTest, ErrorsKeepTheirCodes) {
  Database db;
  db.PutTable("homes", HomesTable());
  const struct {
    const char* sql;
    StatusCode code;
  } kCases[] = {
      {"SELECT * FROM nothere", StatusCode::kNotFound},
      {"SELECT bogus FROM homes", StatusCode::kNotFound},
      {"SELECT price, PRICE FROM homes", StatusCode::kAlreadyExists},
      {"SELECT * FROM homes WHERE neighborhood > 5",
       StatusCode::kInvalidArgument},
      {"SELECT * FROM homes WHERE bogus = 1", StatusCode::kNotFound},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(ExecuteSql(c.sql, db).status().code(), c.code) << c.sql;
  }
}

// A NaN cell satisfies no comparison, range, BETWEEN or IN, negated or
// not, as a NULL cell does not. For every op the SQL row evaluator
// (FilterTable), ExecuteSql, MatchesRow and CompiledPredicate::Filter at
// threads {1, 7} keep the same rows, and none of them a NaN row. `<>` and
// the negated forms have no selection profile, so they are checked on
// the SQL side only.
TEST(ExecutorTest, NaNRowsUnderARange) {
  const Table rows = HostileTable();
  Database db;
  ASSERT_TRUE(db.RegisterTable("t", rows).ok());
  const auto shadow = db.ColumnarFor("t");
  ASSERT_TRUE(shadow.ok());
  std::vector<uint32_t> nan_rows;
  for (uint32_t r = 0; r < rows.num_rows(); ++r) {
    if (rows.row(r)[1].is_nan()) {
      nan_rows.push_back(r);
    }
  }
  ASSERT_FALSE(nan_rows.empty());
  const struct {
    const char* where;
    bool has_profile;
  } kCases[] = {
      {"d < 1", true},
      {"d <= 0", true},
      {"d = 0", true},
      {"d >= 0", true},
      {"d > 0", true},
      {"d BETWEEN 0 AND 2.5", true},
      {"d IN (0, 2.5)", true},
      {"d <> 0", false},
      {"d NOT BETWEEN 0 AND 1", false},
      {"d NOT IN (0)", false},
  };
  for (const auto& c : kCases) {
    const std::string sql = std::string("SELECT * FROM t WHERE ") + c.where;
    const auto query = ParseQuery(sql);
    ASSERT_TRUE(query.ok()) << sql;
    const auto executed = FilterTable(rows, query.value().where.get());
    ASSERT_TRUE(executed.ok()) << sql;
    const std::vector<uint32_t> want(executed->begin(), executed->end());
    EXPECT_FALSE(want.empty()) << sql;
    for (const uint32_t r : nan_rows) {
      EXPECT_EQ(std::count(want.begin(), want.end(), r), 0) << sql;
    }
    const auto result = ExecuteSql(sql, db);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_EQ(std::vector<uint32_t>(result->selection().begin(),
                                    result->selection().end()),
              want)
        << sql;
    if (!c.has_profile) {
      continue;
    }

    const auto profile =
        SelectionProfile::FromQuery(query.value(), rows.schema());
    ASSERT_TRUE(profile.ok()) << sql;
    std::vector<uint32_t> matched;
    for (uint32_t r = 0; r < rows.num_rows(); ++r) {
      if (profile->MatchesRow(rows.row(r), rows.schema())) {
        matched.push_back(r);
      }
    }
    EXPECT_EQ(matched, want) << sql;
    const auto compiled = CompiledPredicate::CompileProfile(
        profile.value(), rows.schema(), shadow.value());
    ASSERT_TRUE(compiled.ok()) << sql;
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      const auto filtered = compiled->Filter({.threads = threads});
      ASSERT_TRUE(filtered.ok()) << sql;
      EXPECT_EQ(filtered.value(), want) << sql << " threads=" << threads;
    }
  }
}

TEST(FilterTableTest, NullPredicateKeepsAll) {
  const Table table = HomesTable();
  const auto indices = FilterTable(table, nullptr);
  ASSERT_TRUE(indices.ok());
  EXPECT_EQ(indices->size(), 4u);
}

}  // namespace
}  // namespace autocat
