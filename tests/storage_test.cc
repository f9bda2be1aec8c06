// Tests for the storage substrate: Schema, Table, CSV.

#include <gtest/gtest.h>

#include "storage/csv.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace autocat {
namespace {

Schema TestSchema() {
  auto schema = Schema::Create({
      ColumnDef("name", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("score", ValueType::kDouble, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

Table TestTable() {
  Table table(TestSchema());
  EXPECT_TRUE(table.AppendRow({Value("a"), Value(100), Value(1.5)}).ok());
  EXPECT_TRUE(table.AppendRow({Value("b"), Value(200), Value(2.5)}).ok());
  EXPECT_TRUE(table.AppendRow({Value("a"), Value(300), Value()}).ok());
  EXPECT_TRUE(table.AppendRow({Value("c"), Value(150), Value(0.5)}).ok());
  return table;
}

// ------------------------------------------------------------------ schema

TEST(SchemaTest, CreateAndLookup) {
  const Schema schema = TestSchema();
  EXPECT_EQ(schema.num_columns(), 3u);
  EXPECT_EQ(schema.column(0).name, "name");
  ASSERT_TRUE(schema.ColumnIndex("price").ok());
  EXPECT_EQ(schema.ColumnIndex("price").value(), 1u);
  EXPECT_EQ(schema.ColumnIndex("PRICE").value(), 1u);  // case-insensitive
  EXPECT_FALSE(schema.ColumnIndex("bogus").ok());
  EXPECT_TRUE(schema.HasColumn("Score"));
  EXPECT_FALSE(schema.HasColumn("scores"));
}

TEST(SchemaTest, RejectsDuplicateNames) {
  EXPECT_FALSE(Schema::Create({
                    ColumnDef("a", ValueType::kString,
                              ColumnKind::kCategorical),
                    ColumnDef("A", ValueType::kInt64, ColumnKind::kNumeric),
                })
                   .ok());
}

TEST(SchemaTest, RejectsEmptyName) {
  EXPECT_FALSE(
      Schema::Create(
          {ColumnDef("", ValueType::kString, ColumnKind::kCategorical)})
          .ok());
}

TEST(SchemaTest, RejectsNonNumericTypeForNumericKind) {
  EXPECT_FALSE(
      Schema::Create(
          {ColumnDef("x", ValueType::kString, ColumnKind::kNumeric)})
          .ok());
}

TEST(SchemaTest, EqualityIgnoresCase) {
  auto a = Schema::Create(
      {ColumnDef("Alpha", ValueType::kInt64, ColumnKind::kNumeric)});
  auto b = Schema::Create(
      {ColumnDef("alpha", ValueType::kInt64, ColumnKind::kNumeric)});
  EXPECT_TRUE(a.value() == b.value());
}

TEST(SchemaTest, ToStringMentionsKinds) {
  const std::string s = TestSchema().ToString();
  EXPECT_NE(s.find("categorical"), std::string::npos);
  EXPECT_NE(s.find("numeric"), std::string::npos);
}

// ------------------------------------------------------------------- table

TEST(TableTest, AppendValidatesArity) {
  Table table(TestSchema());
  EXPECT_FALSE(table.AppendRow({Value("a"), Value(1)}).ok());
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, AppendValidatesTypes) {
  Table table(TestSchema());
  EXPECT_FALSE(
      table.AppendRow({Value("a"), Value("oops"), Value(1.0)}).ok());
  EXPECT_FALSE(table.AppendRow({Value(1), Value(1), Value(1.0)}).ok());
}

TEST(TableTest, AppendCoercesNumerics) {
  Table table(TestSchema());
  // int into double column, whole double into int column.
  ASSERT_TRUE(table.AppendRow({Value("a"), Value(5.0), Value(2)}).ok());
  EXPECT_TRUE(table.CellValue(0, 1).is_int64());
  EXPECT_EQ(table.CellValue(0, 1).int64_value(), 5);
  EXPECT_TRUE(table.CellValue(0, 2).is_double());
  EXPECT_DOUBLE_EQ(table.CellValue(0, 2).double_value(), 2.0);
}

TEST(TableTest, AppendRejectsLossyCoercion) {
  Table table(TestSchema());
  EXPECT_FALSE(table.AppendRow({Value("a"), Value(5.5), Value(1.0)}).ok());
}

TEST(TableTest, NullAllowedAnywhere) {
  Table table(TestSchema());
  EXPECT_TRUE(table.AppendRow({Value(), Value(), Value()}).ok());
}

// A builder is charged its rows and cells, string payloads included.
TEST(TableTest, ApproxTableBytesCountsBuilderCells) {
  const Table table = TestTable();
  size_t want = sizeof(Table);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    want += sizeof(Row) + 3 * sizeof(Value) +
            table.row(r)[0].string_value().capacity();
  }
  EXPECT_EQ(ApproxTableBytes(table), want);
  EXPECT_EQ(ApproxTableBytes(Table(TestSchema())), sizeof(Table));
}

TEST(TableTest, ToStringTruncates) {
  const Table table = TestTable();
  const std::string rendered = table.ToString(2);
  EXPECT_NE(rendered.find("2 more rows"), std::string::npos);
  EXPECT_NE(rendered.find("price"), std::string::npos);
}

// -------------------------------------------------------------------- csv

TEST(CsvTest, RoundTrip) {
  const Table table = TestTable();
  const std::string csv = TableToCsv(table);
  const auto loaded = TableFromCsv(table.schema(), csv);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(loaded->CellValue(r, c), table.CellValue(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(CsvTest, QuotingRoundTrip) {
  Table table(TestSchema());
  ASSERT_TRUE(
      table.AppendRow({Value("has,comma \"and\" quotes"), Value(1),
                       Value(1.0)})
          .ok());
  const auto loaded = TableFromCsv(table.schema(), TableToCsv(table));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->CellValue(0, 0).string_value(),
            "has,comma \"and\" quotes");
}

TEST(CsvTest, NullRoundTripsAsEmptyField) {
  Table table(TestSchema());
  ASSERT_TRUE(table.AppendRow({Value(), Value(), Value(2.0)}).ok());
  const auto loaded = TableFromCsv(table.schema(), TableToCsv(table));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->CellValue(0, 0).is_null());
  EXPECT_TRUE(loaded->CellValue(0, 1).is_null());
}

TEST(CsvTest, HeaderMismatchRejected) {
  EXPECT_FALSE(TableFromCsv(TestSchema(), "name,price\n").ok());
  EXPECT_FALSE(TableFromCsv(TestSchema(), "name,price,wrong\n").ok());
  EXPECT_FALSE(TableFromCsv(TestSchema(), "").ok());
}

TEST(CsvTest, BadCellRejected) {
  EXPECT_FALSE(
      TableFromCsv(TestSchema(), "name,price,score\na,notanumber,1\n").ok());
  EXPECT_FALSE(TableFromCsv(TestSchema(), "name,price,score\na,1\n").ok());
}

TEST(CsvTest, FileRoundTrip) {
  const Table table = TestTable();
  const std::string path = ::testing::TempDir() + "/autocat_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  const auto loaded = ReadCsvFile(table.schema(), path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), table.num_rows());
  EXPECT_FALSE(ReadCsvFile(table.schema(), "/nonexistent/nope.csv").ok());
}

}  // namespace
}  // namespace autocat
