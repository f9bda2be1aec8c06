// Tests for predicate evaluation and the selection/projection executor.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/predicate.h"
#include "sql/parser.h"

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
  EXPECT_EQ(result->ValueAt(0, 0).string_value(), "Bellevue");
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

TEST(FilterTableTest, NullPredicateKeepsAll) {
  const Table table = HomesTable();
  const auto indices = FilterTable(table, nullptr);
  ASSERT_TRUE(indices.ok());
  EXPECT_EQ(indices->size(), 4u);
}

}  // namespace
}  // namespace autocat
