#ifndef AUTOCAT_TESTS_TEST_UTIL_H_
#define AUTOCAT_TESTS_TEST_UTIL_H_

// Shared fixtures for the core/explore tests: a small homes schema, table
// builders, and workload/count-store construction from inline SQL.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "storage/columnar.h"
#include "storage/table.h"
#include "workload/counts.h"
#include "workload/workload.h"

namespace autocat {
namespace test {

inline Schema HomesSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("propertytype", ValueType::kString,
                ColumnKind::kCategorical),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

struct HomeRow {
  const char* neighborhood;
  int64_t price;
  int64_t bedrooms;
  const char* type = "Single Family";
};

inline Table HomesTable(const std::vector<HomeRow>& rows) {
  Table table(HomesSchema());
  for (const HomeRow& row : rows) {
    EXPECT_TRUE(table
                    .AppendRow({Value(row.neighborhood), Value(row.price),
                                Value(row.bedrooms), Value(row.type)})
                    .ok());
  }
  return table;
}

/// `table` as a column-backed table over a shadow built from it, with
/// the same rows: the partitioners read only column-backed tables.
inline Table ColumnBackedCopy(const Table& table) {
  return Table::FromColumnar(
      table.schema(),
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(table)));
}

inline WorkloadStatsOptions StatsOptions(double price_interval = 1000) {
  WorkloadStatsOptions options;
  options.split_intervals = {{"price", price_interval},
                             {"bedroomcount", 1}};
  return options;
}

/// Builds count stores from inline SQL (each string a full SELECT).
inline WorkloadStats StatsFromSql(const std::vector<std::string>& sqls,
                                  double price_interval = 1000) {
  const Workload workload =
      Workload::Parse(sqls, HomesSchema(), nullptr);
  EXPECT_EQ(workload.size(), sqls.size())
      << "test workload failed to parse fully";
  auto stats = WorkloadStats::Build(workload, HomesSchema(),
                                    StatsOptions(price_interval));
  EXPECT_TRUE(stats.ok());
  return std::move(stats).value();
}

}  // namespace test
}  // namespace autocat

#endif  // AUTOCAT_TESTS_TEST_UTIL_H_
