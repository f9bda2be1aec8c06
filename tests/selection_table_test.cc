// Gate for the late-materialized result table (storage/table.h): a
// column-backed `Table` that reads a shared shadow through a row
// selection and a column projection (`Table::Select`) must answer
// every `Table` method exactly as a builder copy of the same rows does
// (`SelectProjectRows` over the builder rows the shadow was built from).
// The cells are hostile (NULL, NaN, -0.0, "", the int64
// extremes), the projections reordered subsets, and the selections
// reversed, repeated and empty. Selections over such a table compose its
// maps instead of applying them twice, every categorization technique builds
// the same tree over it, a Database registers it with a shadow of its
// own rows, and the exploration and ranking models read its rows.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/categorizer.h"
#include "core/enumerate.h"
#include "core/ranking.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "explore/exploration.h"
#include "sql/parser.h"
#include "storage/columnar.h"
#include "storage/table.h"

#include "equivalence_fixture.h"
#include "row_oracle.h"

namespace autocat {
namespace {

using namespace equiv;  // NOLINT

Schema HostileSchema() {
  auto schema = Schema::Create({
      ColumnDef("s", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("d", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("i", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("t", ValueType::kString, ColumnKind::kCategorical),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

// 41 rows cycling through the hostile cells, with the cycles of different
// lengths so every combination turns up.
Table HostileTable() {
  const Value strings[] = {Value(""), Value("a"), Value(), Value("b"),
                           Value("zz")};
  const Value doubles[] = {Value(std::numeric_limits<double>::quiet_NaN()),
                           Value(-0.0), Value(0.0), Value(), Value(1.5),
                           Value(-2.25)};
  const Value ints[] = {Value(std::numeric_limits<int64_t>::min()),
                        Value(std::numeric_limits<int64_t>::max()),
                        Value(int64_t{0}), Value(), Value(int64_t{-7})};
  const Value tags[] = {Value("x"), Value(), Value("")};
  Table table(HostileSchema());
  for (size_t r = 0; r < 41; ++r) {
    EXPECT_TRUE(table
                    .AppendRow({strings[r % 5], doubles[r % 6], ints[r % 5],
                                tags[r % 3]})
                    .ok());
  }
  return table;
}

// A table as a Database installs it: column-backed over its shadow.
struct Shadowed {
  Table base;
  std::shared_ptr<const ColumnarTable> shadow;
};

Shadowed MakeShadowed(const Table& rows) {
  Shadowed out;
  out.shadow =
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(rows));
  out.base = Table::FromColumnar(rows.schema(), out.shadow);
  return out;
}

void ExpectSameStatus(const Status& want, const Status& got,
                      const std::string& context) {
  EXPECT_EQ(want.code(), got.code()) << context;
}

void ExpectSameValues(const std::vector<Value>& want,
                      const std::vector<Value>& got,
                      const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_TRUE(BitIdentical(want[k], got[k]))
        << context << " value " << k << ": " << want[k].ToString() << " vs "
        << got[k].ToString();
  }
}

// Every `Table` method on `got` (column-backed with a selection) against
// the same method on `want` (a builder copy of its rows), and a further
// selection and projection of each (`Table::Select` over `got`,
// `SelectProjectRows` over `want`), errors included.
void ExpectAnswersAlike(const Table& want, const Table& got,
                        const std::string& context) {
  ASSERT_TRUE(want.has_rows()) << context;
  ASSERT_FALSE(got.has_rows()) << context;
  EXPECT_TRUE(got.has_selection()) << context;
  EXPECT_EQ(want.num_rows(), got.num_rows()) << context;
  EXPECT_EQ(want.num_columns(), got.num_columns()) << context;
  EXPECT_EQ(want.empty(), got.empty()) << context;
  EXPECT_TRUE(want.schema() == got.schema()) << context;
  ExpectTablesBitIdentical(want, got, context + " CellValue");
  const size_t n = want.num_rows();
  Row scratch;
  for (size_t r = 0; r < n; ++r) {
    ExpectSameValues(want.row(r), got.RowRef(r, &scratch),
                     context + " RowRef " + std::to_string(r));
  }

  std::vector<std::string> reversed;
  for (size_t c = want.num_columns(); c-- > 0;) {
    reversed.push_back(want.schema().column(c).name);
  }
  std::vector<std::vector<uint32_t>> picks = {{}};
  if (n > 0) {
    const uint32_t last = static_cast<uint32_t>(n - 1);
    picks.push_back({last, 0, last, static_cast<uint32_t>(n / 2)});
  }
  for (const auto& rows : picks) {
    for (const auto& names :
         {reversed, std::vector<std::string>{reversed.front()},
          std::vector<std::string>{}}) {
      const std::vector<size_t> indices(rows.begin(), rows.end());
      AUTOCAT_ASSERT_OK_AND_MOVE(const Table a,
                                 SelectProjectRows(want, indices, names));
      AUTOCAT_ASSERT_OK_AND_MOVE(const Table b,
                                 Table::Select(got, nullptr, rows, names));
      ExpectTablesBitIdentical(a, b, context + " select/project");
    }
  }
  const uint32_t out_of_range = static_cast<uint32_t>(n);
  ExpectSameStatus(SelectProjectRows(want, {n}, {}).status(),
                   Table::Select(got, nullptr, {out_of_range}, {}).status(),
                   context + " row out of range");
  ExpectSameStatus(SelectProjectRows(want, {}, {"nope"}).status(),
                   Table::Select(got, nullptr, {}, {"nope"}).status(),
                   context + " unknown column");

  // The row filter reads both alike.
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ColumnDef& col = want.schema().column(c);
    for (const std::string& where :
         {col.name + " IS NOT NULL",
          col.name + (col.type == ValueType::kString ? " = ''" : " <= 0")}) {
      AUTOCAT_ASSERT_OK_AND_MOVE(const std::unique_ptr<Expr> expr,
                                 ParseExpression(where));
      const auto a = FilterTable(want, expr.get());
      const auto b = FilterTable(got, expr.get());
      ASSERT_TRUE(a.ok() && b.ok()) << context << " " << where;
      EXPECT_EQ(a.value(), b.value()) << context << " " << where;
    }
  }

  EXPECT_EQ(want.ToString(3), got.ToString(3)) << context;
  EXPECT_EQ(want.ToString(1000), got.ToString(1000)) << context;

  Table appended = got;
  EXPECT_FALSE(appended.AppendRow(n > 0 ? want.row(0) : Row()).ok())
      << context;
  EXPECT_FALSE(appended.AppendRows({}).ok()) << context;
  EXPECT_EQ(appended.num_rows(), n) << context;

  EXPECT_EQ(ApproxTableBytes(got),
            sizeof(Table) + sizeof(uint32_t) * (n + got.num_columns()))
      << context;
}

struct Case {
  std::string name;
  std::vector<uint32_t> rows;
  std::vector<std::string> columns;
};

std::vector<Case> Cases(size_t n) {
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), uint32_t{0});
  std::vector<uint32_t> reversed(all.rbegin(), all.rend());
  std::vector<uint32_t> odd;
  for (uint32_t r = 1; r < n; r += 2) {
    odd.push_back(r);
  }
  return {
      {"all", all, {}},
      {"reversed, reordered subset", reversed, {"i", "s"}},
      {"odd rows, one column", odd, {"d"}},
      {"repeats, full reorder", {3, 3, 0, 40, 7, 3}, {"t", "d", "i", "s"}},
      {"empty selection", {}, {"s", "i"}},
      {"empty selection, all columns", {}, {}},
  };
}

// The builder copy of a case's rows and columns of `rows`.
Table CopyOf(const Table& rows, const Case& c) {
  auto copy = SelectProjectRows(
      rows, std::vector<size_t>(c.rows.begin(), c.rows.end()), c.columns);
  EXPECT_TRUE(copy.ok()) << c.name;
  return std::move(copy).value();
}

TEST(SelectionTableTest, EveryMethodAnswersAsTheMaterializedCopy) {
  const Table rows = HostileTable();
  const Shadowed h = MakeShadowed(rows);
  for (const Case& c : Cases(h.base.num_rows())) {
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const Table selected,
        Table::Select(h.base, h.shadow, c.rows, c.columns));
    EXPECT_EQ(selected.columnar_backing(), h.shadow) << c.name;
    const Table want = CopyOf(rows, c);
    ExpectAnswersAlike(want, selected, c.name);
    // Copies keep their maps.
    const Table copy = selected;
    ExpectAnswersAlike(want, copy, c.name + " (copy)");
  }
}

// Expects `got` to read the backing of `want` at the backing rows and
// columns `want` reads at rows `rows` and columns `cols`.
void ExpectAddressesTheBacking(const Table& want,
                               const std::vector<uint32_t>& rows,
                               const std::vector<size_t>& cols,
                               const Table& got, const std::string& context) {
  EXPECT_EQ(got.columnar_backing(), want.columnar_backing()) << context;
  ASSERT_EQ(got.num_rows(), rows.size()) << context;
  ASSERT_EQ(got.num_columns(), cols.size()) << context;
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(got.backing_row(r), want.backing_row(rows[r])) << context;
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    EXPECT_EQ(got.backing_column(c), want.backing_column(cols[c]))
        << context;
  }
}

TEST(SelectionTableTest, ViewsComposeTheMapsOnce) {
  const Table base_rows = HostileTable();
  const Shadowed h = MakeShadowed(base_rows);
  for (const Case& c : Cases(h.base.num_rows())) {
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const Table selected,
        Table::Select(h.base, h.shadow, c.rows, c.columns));
    const Table materialized = CopyOf(base_rows, c);
    const size_t n = selected.num_rows();
    std::vector<size_t> every_column(selected.num_columns());
    std::iota(every_column.begin(), every_column.end(), size_t{0});

    // Every row of the selection, with no shadow named or with its own
    // backing: the selection addresses the shadow directly.
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), uint32_t{0});
    for (const auto& named : {std::shared_ptr<const ColumnarTable>(),
                              selected.columnar_backing()}) {
      AUTOCAT_ASSERT_OK_AND_MOVE(const Table again,
                                 Table::Select(selected, named, all, {}));
      EXPECT_EQ(again.columnar_backing(), h.shadow) << c.name;
      ExpectAddressesTheBacking(selected, all, every_column, again,
                                c.name + " all rows");
      ExpectTablesBitIdentical(materialized, again, c.name + " all rows");
    }

    // A second selection and projection on top of the first, against the
    // same two steps on the copy.
    std::vector<uint32_t> rows;
    for (size_t r = n; r-- > 0;) {
      if (r % 3 != 1) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    std::vector<std::string> names;
    for (size_t col = selected.num_columns(); col-- > 0;) {
      names.push_back(selected.schema().column(col).name);
    }
    AUTOCAT_ASSERT_OK_AND_MOVE(const Table nested,
                               Table::Select(selected, nullptr, rows, names));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const Table want,
        SelectProjectRows(materialized,
                          std::vector<size_t>(rows.begin(), rows.end()),
                          names));
    EXPECT_EQ(nested.columnar_backing(), h.shadow) << c.name;
    ExpectAddressesTheBacking(
        selected, rows,
        std::vector<size_t>(every_column.rbegin(), every_column.rend()),
        nested, c.name + " nested");
    ExpectAnswersAlike(want, nested, c.name + " nested");
    EXPECT_EQ(Table::Select(selected, nullptr, {static_cast<uint32_t>(n)}, {})
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << c.name;
    EXPECT_FALSE(Table::Select(selected, nullptr, {}, {"nope"}).ok())
        << c.name;
  }
}

// A selection reads its base's own columnar form. A shadow of the same
// rows that the base does not hold is refused with kInvalidArgument,
// over a column-backed base and over a builder base alike. Null, or the
// base's backing, is accepted; over a builder base the selection builds
// and owns its shadow, so it outlives the base.
TEST(SelectionTableTest, SelectRefusesAForeignShadow) {
  const Table rows = HostileTable();
  const Shadowed h = MakeShadowed(rows);
  const auto foreign =
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(rows));
  for (const Table* base : {&h.base, &rows}) {
    const Result<Table> refused =
        Table::Select(*base, foreign, {0, 1}, {"d"});
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
  }

  AUTOCAT_ASSERT_OK_AND_MOVE(const Table own,
                             Table::Select(h.base, h.shadow, {4, 0}, {"d"}));
  EXPECT_EQ(own.columnar_backing(), h.shadow);
  std::optional<Table> built;
  {
    const Table temporary = HostileTable();
    AUTOCAT_ASSERT_OK_AND_MOVE(
        built, Table::Select(temporary, nullptr, {4, 0}, {"d"}));
  }
  ASSERT_NE(built->columnar_backing(), nullptr);
  EXPECT_NE(built->columnar_backing(), h.shadow);
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table want,
                             SelectProjectRows(rows, {4, 0}, {"d"}));
  ExpectAnswersAlike(want, own, "selection over its base's shadow");
  ExpectAnswersAlike(want, *built, "selection over a builder base");
}

// Selecting every row and every column is no exception: a foreign shadow
// is a kInvalidArgument status, not a crash, over either kind of base.
TEST(SelectionTableTest, SelectAllRefusesAForeignShadow) {
  const Table rows = HostileTable();
  const Shadowed h = MakeShadowed(rows);
  const auto foreign = std::make_shared<const ColumnarTable>(
      ColumnarTable::Build(HostileTable()));
  std::vector<uint32_t> all(rows.num_rows());
  std::iota(all.begin(), all.end(), uint32_t{0});
  for (const Table* base : {&h.base, &rows}) {
    const Result<Table> refused = Table::Select(*base, foreign, all, {});
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
  }
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table own,
                             Table::Select(h.base, h.shadow, all, {}));
  EXPECT_EQ(own.num_rows(), rows.num_rows());
  EXPECT_EQ(own.columnar_backing(), h.shadow);
}

// A selection over the fuzz homes (hostile cells and NULLs included),
// projected to a reordered subset of its columns.
struct HomesSelection {
  Shadowed h;
  Table selected;
  Table materialized;
};

HomesSelection MakeHomesSelection() {
  HomesSelection out;
  const Table homes = MakeHomes(700, 77, 0.05, true);
  out.h = MakeShadowed(homes);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < out.h.base.num_rows(); r += 2) {
    rows.push_back(r);
  }
  const std::vector<std::string> columns = {
      "price", "neighborhood", "squarefootage", "propertytype",
      "bedroomcount", "city"};
  auto copy = SelectProjectRows(
      homes, std::vector<size_t>(rows.begin(), rows.end()), columns);
  EXPECT_TRUE(copy.ok());
  out.materialized = std::move(copy).value();
  auto selected =
      Table::Select(out.h.base, out.h.shadow, std::move(rows), columns);
  EXPECT_TRUE(selected.ok());
  out.selected = std::move(selected).value();
  return out;
}

WorkloadStats HomesStats() {
  Random rng(5);
  std::vector<std::string> sqls;
  for (int q = 0; q < 300; ++q) {
    sqls.push_back(RandomQuery(rng, FuzzSchema()));
  }
  const Workload workload = Workload::Parse(sqls, FuzzSchema(), nullptr);
  WorkloadStatsOptions options;
  options.split_intervals = {{"price", 25000},
                             {"squarefootage", 500},
                             {"bedroomcount", 1}};
  auto stats = WorkloadStats::Build(workload, FuzzSchema(), options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return std::move(stats).value();
}

void ExpectSameTree(const CategoryTree& want, const CategoryTree& got,
                    const std::string& context) {
  EXPECT_GT(want.num_nodes(), 1u) << context;
  ASSERT_EQ(want.num_nodes(), got.num_nodes()) << context;
  EXPECT_EQ(want.level_attributes(), got.level_attributes()) << context;
  for (NodeId id = 0; id < static_cast<NodeId>(want.num_nodes()); ++id) {
    EXPECT_EQ(want.node(id).tuples, got.node(id).tuples)
        << context << " node " << id;
    EXPECT_EQ(want.node(id).children, got.node(id).children)
        << context << " node " << id;
  }
  EXPECT_EQ(want.Render(1000, 0), got.Render(1000, 0)) << context;
}

TEST(SelectionTableTest, EveryTechniqueBuildsTheSameTree) {
  const HomesSelection hs = MakeHomesSelection();
  ExpectAnswersAlike(hs.materialized, hs.selected, "homes");
  const WorkloadStats stats = HomesStats();
  const SelectionProfile* no_query = nullptr;
  for (const size_t max_tuples : {size_t{20}, size_t{5}}) {
    CategorizerOptions options;
    options.max_tuples_per_category = max_tuples;
    options.attribute_usage_threshold = 0.0;
    const std::string m = " M=" + std::to_string(max_tuples);
    {
      const CostBasedCategorizer categorizer(&stats, options);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree want,
          categorizer.Categorize(hs.materialized, no_query));
      AUTOCAT_ASSERT_OK_AND_MOVE(const CategoryTree got,
                                 categorizer.Categorize(hs.selected, no_query));
      ExpectSameTree(want, got, "Cost-based" + m);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree served,
          categorizer.Categorize(hs.selected, no_query, /*index=*/nullptr,
                                 /*timings=*/nullptr));
      ExpectSameTree(want, served, "Cost-based serving entry" + m);
    }
    {
      const AttrCostCategorizer categorizer(&stats, options);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree want,
          categorizer.Categorize(hs.materialized, no_query));
      AUTOCAT_ASSERT_OK_AND_MOVE(const CategoryTree got,
                                 categorizer.Categorize(hs.selected, no_query));
      ExpectSameTree(want, got, "Attr-cost" + m);
    }
    {
      const NoCostCategorizer categorizer(&stats, options);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CategoryTree want,
          categorizer.Categorize(hs.materialized, no_query));
      AUTOCAT_ASSERT_OK_AND_MOVE(const CategoryTree got,
                                 categorizer.Categorize(hs.selected, no_query));
      ExpectSameTree(want, got, "No cost" + m);
    }
    {
      const std::vector<std::string> candidates = {"neighborhood", "city",
                                                   "propertytype"};
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const EnumerationResult want,
          EnumerateBestAttributeOrder(hs.materialized, candidates, &stats,
                                      options, no_query));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const EnumerationResult got,
          EnumerateBestAttributeOrder(hs.selected, candidates, &stats,
                                      options, no_query));
      ExpectSameTree(want.tree, got.tree, "enumeration" + m);
      EXPECT_EQ(want.attribute_order, got.attribute_order) << m;
      EXPECT_EQ(want.cost, got.cost) << m;
    }
  }
}

TEST(SelectionTableTest, DatabaseRegistersItWithAShadowOfItsOwnRows) {
  const HomesSelection hs = MakeHomesSelection();
  Database by_selection;
  Database by_rows;
  ASSERT_TRUE(by_selection.RegisterTable("homes", hs.selected).ok());
  ASSERT_TRUE(by_rows.RegisterTable("homes", hs.materialized).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const std::shared_ptr<const ColumnarTable> own,
                             by_selection.ColumnarFor("homes"));
  EXPECT_NE(own, hs.selected.columnar_backing());
  EXPECT_EQ(own->num_rows(), hs.selected.num_rows());
  EXPECT_EQ(own->num_columns(), hs.selected.num_columns());
  const char* const kSqls[] = {
      "SELECT * FROM homes WHERE price > 300000",
      "SELECT city, price FROM homes WHERE neighborhood IN ('Redmond', "
      "'Seattle') AND bedroomcount >= 2",
      "SELECT * FROM homes WHERE propertytype = 'Condo' AND price < 500000",
  };
  for (const char* sql : kSqls) {
    AUTOCAT_ASSERT_OK_AND_MOVE(const Table want, ExecuteSql(sql, by_rows));
    AUTOCAT_ASSERT_OK_AND_MOVE(const Table got, ExecuteSql(sql, by_selection));
    ExpectTablesBitIdentical(want, got, sql);
    // The columnar filter over each registered shadow selects the same
    // rows.
    AUTOCAT_ASSERT_OK_AND_MOVE(const SelectQuery query, ParseQuery(sql));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const SelectionProfile profile,
        SelectionProfile::FromQuery(query, hs.selected.schema()));
    std::vector<Table> results;
    for (const Database* db : {&by_rows, &by_selection}) {
      AUTOCAT_ASSERT_OK_AND_MOVE(const Table* table, db->GetTable("homes"));
      AUTOCAT_ASSERT_OK_AND_MOVE(const std::shared_ptr<const ColumnarTable>
                                     shadow,
                                 db->ColumnarFor("homes"));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const CompiledPredicate compiled,
          CompiledPredicate::CompileProfile(profile, table->schema(),
                                            shadow));
      AUTOCAT_ASSERT_OK_AND_MOVE(const std::vector<uint32_t> rows,
                                 compiled.Filter(ParallelOptions{1}));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          Table result, Table::Select(*table, shadow, rows, query.columns));
      results.push_back(std::move(result));
    }
    ASSERT_GT(results[0].num_rows(), 0u) << sql;
    ExpectTablesBitIdentical(results[0], results[1],
                             std::string(sql) + " filtered");
  }
}

// The exploration model reads tuples of the tree's result, and ranking
// scores them: both must read a selection-backed result through its maps.
TEST(SelectionTableTest, ExploresAndRanksAColumnBackedResult) {
  const HomesSelection hs = MakeHomesSelection();
  const WorkloadStats stats = HomesStats();
  CategorizerOptions options;
  options.attribute_usage_threshold = 0.0;
  const CostBasedCategorizer categorizer(&stats, options);
  AUTOCAT_ASSERT_OK_AND_MOVE(CategoryTree want,
                             categorizer.Categorize(hs.materialized, nullptr));
  AUTOCAT_ASSERT_OK_AND_MOVE(CategoryTree got,
                             categorizer.Categorize(hs.selected, nullptr));
  ASSERT_GT(got.num_nodes(), 1u);

  const std::vector<std::string> attributes = {"price", "neighborhood",
                                               "bedroomcount"};
  ASSERT_TRUE(ApplyLeafRanking(want, attributes, stats).ok());
  ASSERT_TRUE(ApplyLeafRanking(got, attributes, stats).ok());
  ExpectSameTree(want, got, "ranked");
  for (size_t r = 0; r < hs.selected.num_rows(); r += 37) {
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const double a, TupleScore(hs.materialized, r, attributes, stats));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const double b, TupleScore(hs.selected, r, attributes, stats));
    EXPECT_EQ(a, b) << "row " << r;
  }

  const char* const kInterests[] = {
      "SELECT * FROM homes WHERE neighborhood = 'Seattle' AND price < "
      "400000",
      "SELECT * FROM homes WHERE bedroomcount >= 3",
  };
  for (const char* sql : kInterests) {
    AUTOCAT_ASSERT_OK_AND_MOVE(const SelectQuery query, ParseQuery(sql));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const SelectionProfile interest,
        SelectionProfile::FromQuery(query, hs.selected.schema()));
    for (const Scenario scenario : {Scenario::kAll, Scenario::kOne}) {
      SimulatedExplorer::Options explore;
      explore.scenario = scenario;
      const SimulatedExplorer explorer(explore);
      const ExplorationResult a = explorer.Explore(want, interest);
      const ExplorationResult b = explorer.Explore(got, interest);
      EXPECT_EQ(a.tuples_examined, b.tuples_examined) << sql;
      EXPECT_EQ(a.relevant_found, b.relevant_found) << sql;
      EXPECT_EQ(a.categories_explored, b.categories_explored) << sql;
      EXPECT_EQ(a.found_any, b.found_any) << sql;
    }
  }
}

}  // namespace
}  // namespace autocat
