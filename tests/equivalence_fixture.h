#ifndef AUTOCAT_TESTS_EQUIVALENCE_FIXTURE_H_
#define AUTOCAT_TESTS_EQUIVALENCE_FIXTURE_H_

// Shared fixture for the equivalence gates: the SQL fuzz harness's homes
// schema, a deterministic table seeded with hostile edge values, bit-exact
// value/table comparison, the randomized query generator, and the row
// oracle a served categorization is compared against (`ServeRows`).
// Everything is inline so each test binary keeps internal copies.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/categorizer.h"
#include "core/partition.h"
#include "exec/executor.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "serve/signature.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "workload/counts.h"

// ASSERT that `rexpr` (a Result) is ok and move its value into `decl`.
// Usable only where ASSERT_* is (void-returning test bodies).
#define AUTOCAT_EQUIV_CONCAT_(a, b) a##b
#define AUTOCAT_EQUIV_CONCAT(a, b) AUTOCAT_EQUIV_CONCAT_(a, b)
#define AUTOCAT_ASSERT_OK_AND_MOVE(decl, rexpr)                     \
  auto AUTOCAT_EQUIV_CONCAT(result_, __LINE__) = (rexpr);           \
  ASSERT_TRUE(AUTOCAT_EQUIV_CONCAT(result_, __LINE__).ok())         \
      << AUTOCAT_EQUIV_CONCAT(result_, __LINE__).status().ToString(); \
  decl = std::move(AUTOCAT_EQUIV_CONCAT(result_, __LINE__)).value()

namespace autocat {
namespace equiv {

// The homes schema of the SQL fuzz harness (tests/fuzz/sql_parser_fuzz.cc):
// the corpus queries reference exactly these columns and types.
inline Schema FuzzSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("city", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("propertytype", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bathcount", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("squarefootage", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("yearbuilt", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

inline constexpr const char* const kNeighborhoods[] = {
    "Redmond", "Bellevue", "Seattle", "Kirkland", "Ballard", "Queen Anne"};
inline constexpr const char* const kCities[] = {"Seattle", "Bellevue",
                                                "Redmond"};
inline constexpr const char* const kTypes[] = {"Single Family", "Condo",
                                               "Townhome"};

// Deterministic table over FuzzSchema. `null_p` sprinkles NULL cells;
// `with_hostile_cells` plants values with sharp comparison semantics:
// NaN (Value::Compare treats it as equal to everything), signed zeros,
// 2^53 + 1 (not representable as double), and the int64 extremes.
inline Table MakeHomes(size_t n, uint64_t seed, double null_p,
                       bool with_hostile_cells) {
  Table table(FuzzSchema());
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    auto cell = [&](Value v) {
      row.push_back(rng.Bernoulli(null_p) ? Value() : std::move(v));
    };
    cell(Value(kNeighborhoods[rng.Uniform(0, 5)]));
    cell(Value(kCities[rng.Uniform(0, 2)]));
    cell(Value(kTypes[rng.Uniform(0, 2)]));

    double price = rng.UniformReal(50000, 900000);
    if (rng.Bernoulli(0.2)) {
      price = 25000.0 * rng.Uniform(2, 30);  // exact split-point multiples
    }
    cell(Value(price));
    cell(Value(rng.Uniform(0, 8)));
    cell(Value(0.25 * rng.Uniform(4, 20)));
    cell(Value(rng.UniformReal(300, 8000)));
    cell(Value(rng.Uniform(1900, 2026)));

    if (with_hostile_cells && i % 17 == 0) {
      const size_t variant = i / 17 % 6;
      switch (variant) {
        case 0:
          row[3] = Value(std::numeric_limits<double>::quiet_NaN());
          break;
        case 1:
          row[3] = Value(-0.0);
          break;
        case 2:
          row[3] = Value(0.0);
          break;
        case 3:
          row[4] = Value(std::numeric_limits<int64_t>::max());
          break;
        case 4:
          row[4] = Value(std::numeric_limits<int64_t>::min());
          break;
        default:
          row[7] = Value(int64_t{9007199254740993});  // 2^53 + 1
          break;
      }
    }
    EXPECT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  return table;
}

// Bit-exact cell equality: same dynamic type, and doubles compared by
// representation so NaN == NaN and -0.0 != 0.0 (Value::operator== would
// accept int64(3) == double(3.0) and any NaN == anything).
inline bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return false;
  }
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.int64_value() == b.int64_value();
    case ValueType::kDouble: {
      uint64_t ba = 0;
      uint64_t bb = 0;
      const double da = a.double_value();
      const double db = b.double_value();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case ValueType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

inline void ExpectTablesBitIdentical(const Table& row_result,
                                     const Table& col_result,
                                     const std::string& context) {
  ASSERT_EQ(row_result.schema().num_columns(),
            col_result.schema().num_columns())
      << context;
  for (size_t c = 0; c < row_result.schema().num_columns(); ++c) {
    EXPECT_EQ(row_result.schema().column(c).name,
              col_result.schema().column(c).name)
        << context;
    EXPECT_EQ(row_result.schema().column(c).type,
              col_result.schema().column(c).type)
        << context;
    EXPECT_EQ(row_result.schema().column(c).kind,
              col_result.schema().column(c).kind)
        << context;
  }
  ASSERT_EQ(row_result.num_rows(), col_result.num_rows()) << context;
  for (size_t r = 0; r < row_result.num_rows(); ++r) {
    for (size_t c = 0; c < row_result.schema().num_columns(); ++c) {
      ASSERT_TRUE(
          BitIdentical(row_result.ValueAt(r, c), col_result.ValueAt(r, c)))
          << context << " differs at row " << r << " col " << c << ": "
          << row_result.ValueAt(r, c).ToString() << " vs "
          << col_result.ValueAt(r, c).ToString();
    }
  }
}

// Same labels (bit-identical bounds and values) and same tuple lists, in
// the same order.
inline void ExpectPartitionsIdentical(
    const std::vector<PartitionCategory>& expected,
    const std::vector<PartitionCategory>& actual, const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    const CategoryLabel& a = expected[i].label;
    const CategoryLabel& b = actual[i].label;
    EXPECT_EQ(a.attribute(), b.attribute()) << context;
    ASSERT_EQ(a.is_categorical(), b.is_categorical()) << context;
    if (a.is_categorical()) {
      ASSERT_EQ(a.values().size(), b.values().size()) << context;
      for (size_t v = 0; v < a.values().size(); ++v) {
        EXPECT_TRUE(BitIdentical(a.values()[v], b.values()[v])) << context;
      }
    } else {
      EXPECT_TRUE(BitIdentical(Value(a.lo()), Value(b.lo()))) << context;
      EXPECT_TRUE(BitIdentical(Value(a.hi()), Value(b.hi()))) << context;
      EXPECT_EQ(a.hi_inclusive(), b.hi_inclusive()) << context;
    }
    EXPECT_EQ(expected[i].tuples, actual[i].tuples)
        << context << " category " << i;
  }
}

// What the serve oracle answers: the payload and its canonical key.
struct OracleResponse {
  std::shared_ptr<const CachedCategorization> payload;
  std::string signature;
};

// The serve-path reference: one cold request through the row chain —
// CanonicalizeQuery -> MatchesRow -> SelectRows -> Project ->
// CostBasedCategorizer::Categorize(Table) -> CachedCategorization::Build —
// with a service's effective `options` (see CategorizationService::
// options()) and the service's `workload`. A served response must match
// it bit for bit.
inline Result<OracleResponse> ServeRows(std::string_view sql,
                                        const Table& table,
                                        const Workload& workload,
                                        const ServiceOptions& options) {
  AUTOCAT_ASSIGN_OR_RETURN(const SelectQuery query, ParseQuery(sql));
  AUTOCAT_ASSIGN_OR_RETURN(
      CanonicalQuery canonical,
      CanonicalizeQuery(query, table.schema(), options.signature));
  AUTOCAT_ASSIGN_OR_RETURN(
      const WorkloadStats stats,
      WorkloadStats::Build(workload, table.schema(), options.stats));
  const Schema& schema = table.schema();
  const std::vector<size_t> indices =
      table.FilterIndices([&](const Row& row) {
        return canonical.profile.MatchesRow(row, schema);
      });
  AUTOCAT_ASSIGN_OR_RETURN(Table result, table.SelectRows(indices));
  if (!canonical.columns.empty()) {
    AUTOCAT_ASSIGN_OR_RETURN(result, result.Project(canonical.columns));
  }
  const CostBasedCategorizer categorizer(&stats, options.categorizer);
  AUTOCAT_ASSIGN_OR_RETURN(
      std::shared_ptr<const CachedCategorization> payload,
      CachedCategorization::Build(
          std::move(result), [&](const Table& owned) {
            return categorizer.Categorize(owned, &canonical.profile);
          }));
  return OracleResponse{std::move(payload), std::move(canonical.key)};
}

// A served payload against the oracle's: the result table bit for bit,
// the rendered tree, the signature, and the cache byte accounting.
inline void ExpectServedMatchesOracle(const ServeResponse& served,
                                      const OracleResponse& oracle,
                                      const std::string& context) {
  EXPECT_EQ(served.signature, oracle.signature) << context;
  ExpectTablesBitIdentical(oracle.payload->result(),
                           served.payload->result(), context);
  EXPECT_EQ(served.payload->tree().Render(1000, 0),
            oracle.payload->tree().Render(1000, 0))
      << context;
  EXPECT_EQ(served.payload->approx_bytes(), oracle.payload->approx_bytes())
      << context;
}

inline std::string RandomLiteral(Random& rng, size_t col) {
  if (col <= 2) {  // string columns
    const char* const* vocab =
        col == 0 ? kNeighborhoods : (col == 1 ? kCities : kTypes);
    const int64_t hi = col == 0 ? 5 : 2;
    return std::string("'") + vocab[rng.Uniform(0, hi)] + "'";
  }
  switch (rng.Uniform(0, 3)) {
    case 0:
      return std::to_string(rng.Uniform(-5, 1000000));
    case 1:
      return std::to_string(25000.0 * rng.Uniform(0, 30));
    case 2:
      return "9007199254740993";  // 2^53 + 1
    default:
      return std::to_string(rng.UniformReal(0, 900000));
  }
}

inline std::string RandomCondition(Random& rng, const Schema& schema) {
  // Occasionally target an unknown column or cross the string/numeric
  // class boundary: every consumer must then handle the query exactly
  // (the same error Status, an empty result, a member no cell can equal),
  // not merely "do something reasonable".
  const bool hostile = rng.Bernoulli(0.15);
  const size_t col = static_cast<size_t>(rng.Uniform(0, 7));
  std::string name =
      hostile && rng.Bernoulli(0.3) ? "bogus" : schema.column(col).name;
  const size_t lit_col =
      hostile ? static_cast<size_t>(rng.Uniform(0, 7)) : col;
  switch (rng.Uniform(0, 6)) {
    case 0:
      return name + " = " + RandomLiteral(rng, lit_col);
    case 1:
      return name + " <> " + RandomLiteral(rng, lit_col);
    case 2: {
      const char* const ops[] = {"<", "<=", ">", ">="};
      return name + " " + ops[rng.Uniform(0, 3)] + " " +
             RandomLiteral(rng, lit_col);
    }
    case 3: {
      std::string a = RandomLiteral(rng, lit_col);
      std::string b = RandomLiteral(rng, lit_col);
      return name + (rng.Bernoulli(0.3) ? " NOT BETWEEN " : " BETWEEN ") +
             a + " AND " + b;
    }
    case 4: {
      std::string list = RandomLiteral(rng, lit_col);
      const int64_t extra = rng.Uniform(0, 3);
      for (int64_t i = 0; i < extra; ++i) {
        list += ", " + RandomLiteral(rng, lit_col);
      }
      return name + (rng.Bernoulli(0.3) ? " NOT IN (" : " IN (") + list +
             ")";
    }
    default:
      return name + (rng.Bernoulli(0.5) ? " IS NULL" : " IS NOT NULL");
  }
}

inline std::string RandomQuery(Random& rng, const Schema& schema) {
  std::string sql = "SELECT * FROM homes WHERE ";
  const int64_t conds = rng.Uniform(1, 3);
  for (int64_t i = 0; i < conds; ++i) {
    if (i > 0) {
      sql += rng.Bernoulli(0.5) ? " AND " : " OR ";
    }
    sql += RandomCondition(rng, schema);
  }
  return sql;
}

}  // namespace equiv
}  // namespace autocat

#endif  // AUTOCAT_TESTS_EQUIVALENCE_FIXTURE_H_
