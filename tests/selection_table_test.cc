// Gate for the late-materialized result table (storage/table.h): a
// column-backed `Table` that reads a shared shadow through a row
// selection and a column projection (`TableView::AsTable`) must answer
// every `Table` method exactly as the `Materialize()`d copy of the same
// view does. The cells are hostile (NULL, NaN, -0.0, "", the int64
// extremes), the projections reordered subsets, and the selections
// reversed, repeated and empty. Views over such a table compose its maps
// instead of applying them twice, every categorization technique builds
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
// the same method on `want` (the materialized copy).
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
    ExpectSameValues(want.CopyRow(r), got.CopyRow(r),
                     context + " CopyRow " + std::to_string(r));
    ExpectSameValues(want.row(r), got.RowRef(r, &scratch),
                     context + " RowRef " + std::to_string(r));
  }

  std::vector<std::vector<size_t>> picks = {{}};
  if (n > 0) {
    picks.push_back({n - 1, 0, n - 1, n / 2});
  }
  for (const auto& indices : picks) {
    auto a = want.SelectRows(indices);
    auto b = got.SelectRows(indices);
    ASSERT_TRUE(a.ok() && b.ok()) << context;
    EXPECT_TRUE(b->has_rows()) << context;
    ExpectTablesBitIdentical(a.value(), b.value(), context + " SelectRows");
  }
  ExpectSameStatus(want.SelectRows({n}).status(), got.SelectRows({n}).status(),
                   context + " SelectRows out of range");

  const auto first_not_null = [](const Row& row) {
    return !row.empty() && !row[0].is_null();
  };
  const auto last_is_empty_string = [](const Row& row) {
    return !row.empty() && row.back().is_string() &&
           row.back().string_value().empty();
  };
  EXPECT_EQ(want.FilterIndices(first_not_null),
            got.FilterIndices(first_not_null))
      << context;
  EXPECT_EQ(want.FilterIndices(last_is_empty_string),
            got.FilterIndices(last_is_empty_string))
      << context;

  std::vector<std::string> reversed;
  for (size_t c = want.num_columns(); c-- > 0;) {
    reversed.push_back(want.schema().column(c).name);
  }
  for (const auto& names :
       {reversed, std::vector<std::string>{reversed.front()},
        std::vector<std::string>{}}) {
    auto a = want.Project(names);
    auto b = got.Project(names);
    ASSERT_EQ(a.ok(), b.ok()) << context;
    if (a.ok()) {
      EXPECT_TRUE(b->has_rows()) << context;
      ExpectTablesBitIdentical(a.value(), b.value(), context + " Project");
    } else {
      ExpectSameStatus(a.status(), b.status(), context + " Project");
    }
  }
  ExpectSameStatus(want.Project({"nope"}).status(),
                   got.Project({"nope"}).status(), context + " Project");

  for (size_t c = 0; c <= want.num_columns(); ++c) {
    const std::string at = context + " column " + std::to_string(c);
    auto a = want.DistinctValues(c);
    auto b = got.DistinctValues(c);
    ASSERT_EQ(a.ok(), b.ok()) << at;
    if (a.ok()) {
      ExpectSameValues(a.value(), b.value(), at + " DistinctValues");
    } else {
      ExpectSameStatus(a.status(), b.status(), at + " DistinctValues");
    }
    auto x = want.MinMax(c);
    auto y = got.MinMax(c);
    ASSERT_EQ(x.ok(), y.ok()) << at;
    if (x.ok()) {
      EXPECT_TRUE(BitIdentical(x->first, y->first)) << at << " min";
      EXPECT_TRUE(BitIdentical(x->second, y->second)) << at << " max";
    } else {
      ExpectSameStatus(x.status(), y.status(), at + " MinMax");
    }
  }

  EXPECT_EQ(want.ToString(3), got.ToString(3)) << context;
  EXPECT_EQ(want.ToString(1000), got.ToString(1000)) << context;

  Table appended = got;
  EXPECT_FALSE(appended.AppendRow(n > 0 ? want.CopyRow(0) : Row()).ok())
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

TEST(SelectionTableTest, EveryMethodAnswersAsTheMaterializedCopy) {
  const Shadowed h = MakeShadowed(HostileTable());
  for (const Case& c : Cases(h.base.num_rows())) {
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const TableView view,
        TableView::Create(h.base, h.shadow, c.rows, c.columns));
    const Table selected = view.AsTable();
    EXPECT_EQ(selected.columnar_backing(), h.shadow) << c.name;
    ExpectAnswersAlike(view.Materialize(), selected, c.name);
    // Copies keep their maps.
    const Table copy = selected;
    ExpectAnswersAlike(view.Materialize(), copy, c.name + " (copy)");
  }
}

// The whole-dictionary answer of a FromColumnar string column would be
// wrong for a selection that misses some of its values.
TEST(SelectionTableTest, DistinctValuesTakesNoWholeDictionaryShortcut) {
  const Shadowed h = MakeShadowed(HostileTable());
  AUTOCAT_ASSERT_OK_AND_MOVE(const TableView view,
                             TableView::Create(h.base, h.shadow, {1, 6}, {}));
  const Table selected = view.AsTable();
  AUTOCAT_ASSERT_OK_AND_MOVE(const std::vector<Value> distinct,
                             selected.DistinctValues(0));
  ASSERT_EQ(distinct.size(), 1u);
  EXPECT_EQ(distinct[0].string_value(), "a");
  const Table whole = Table::FromColumnar(h.base.schema(), h.shadow);
  AUTOCAT_ASSERT_OK_AND_MOVE(const std::vector<Value> all,
                             whole.DistinctValues(0));
  EXPECT_EQ(all.size(), 4u);  // "", "a", "b", "zz"
}

TEST(SelectionTableTest, ViewsComposeTheMapsOnce) {
  const Shadowed h = MakeShadowed(HostileTable());
  for (const Case& c : Cases(h.base.num_rows())) {
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const TableView view,
        TableView::Create(h.base, h.shadow, c.rows, c.columns));
    const Table selected = view.AsTable();
    const Table materialized = view.Materialize();

    // All: the view addresses the shadow directly.
    const TableView all = TableView::All(selected, nullptr);
    EXPECT_EQ(all.columnar(), h.shadow.get()) << c.name;
    ASSERT_EQ(all.num_rows(), view.num_rows()) << c.name;
    for (size_t r = 0; r < all.num_rows(); ++r) {
      EXPECT_EQ(all.base_row(r), view.base_row(r)) << c.name;
    }
    for (size_t col = 0; col < all.num_columns(); ++col) {
      EXPECT_EQ(all.base_column(col), view.base_column(col)) << c.name;
    }
    ExpectTablesBitIdentical(materialized, all.Materialize(),
                             c.name + " All");
    const TableView all_explicit =
        TableView::All(selected, selected.columnar_backing());
    ExpectTablesBitIdentical(materialized, all_explicit.Materialize(),
                             c.name + " All(backing)");

    // Create over the selection: a second selection and projection on
    // top of the first, against the same two steps on the copy.
    const size_t n = selected.num_rows();
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
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const TableView nested,
        TableView::Create(selected, nullptr, rows, names));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const TableView nested_copy,
        TableView::Create(materialized, nullptr, rows, names));
    EXPECT_EQ(nested.columnar(), h.shadow.get()) << c.name;
    const Table want = nested_copy.Materialize();
    ExpectTablesBitIdentical(want, nested.Materialize(), c.name + " nested");
    ExpectAnswersAlike(want, nested.AsTable(), c.name + " nested AsTable");
    EXPECT_EQ(
        TableView::Create(selected, nullptr, {static_cast<uint32_t>(n)}, {})
            .status()
            .code(),
        StatusCode::kOutOfRange)
        << c.name;
    EXPECT_FALSE(TableView::Create(selected, nullptr, {}, {"nope"}).ok())
        << c.name;
  }
}

// A view reads its base's own columnar form. A shadow of the same rows
// that the base does not hold is refused: by Create with a precise
// status, over a column-backed base and over a row-backed one alike.
// Null, or the base's backing, is accepted; over a row-backed base the
// view builds its own shadow, so it outlives the base.
TEST(TableViewTest, CreateRefusesAForeignShadow) {
  const Table rows = HostileTable();
  const Shadowed h = MakeShadowed(rows);
  const auto foreign =
      std::make_shared<const ColumnarTable>(ColumnarTable::Build(rows));
  for (const Table* base : {&h.base, &rows}) {
    const Result<TableView> refused =
        TableView::Create(*base, foreign, {0, 1}, {"d"});
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
  }

  AUTOCAT_ASSERT_OK_AND_MOVE(
      const TableView own, TableView::Create(h.base, h.shadow, {4, 0}, {"d"}));
  EXPECT_EQ(own.columnar(), h.shadow.get());
  std::optional<TableView> built;
  {
    const Table temporary = HostileTable();
    AUTOCAT_ASSERT_OK_AND_MOVE(
        built, TableView::Create(temporary, nullptr, {4, 0}, {"d"}));
  }
  ASSERT_NE(built->columnar(), nullptr);
  EXPECT_NE(built->columnar(), h.shadow.get());
  ExpectTablesBitIdentical(own.Materialize(), built->Materialize(),
                           "view over a row-backed base");
  ExpectTablesBitIdentical(own.Materialize(), built->AsTable(),
                           "its AsTable");
}

// All has no status to return, so a foreign shadow is a CHECK failure.
TEST(TableViewDeathTest, AllRefusesAForeignShadow) {
  const Shadowed h = MakeShadowed(HostileTable());
  const auto foreign = std::make_shared<const ColumnarTable>(
      ColumnarTable::Build(HostileTable()));
  EXPECT_DEATH((void)TableView::All(h.base, foreign),
               "AUTOCAT_CHECK failed");
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
  out.h = MakeShadowed(MakeHomes(700, 77, 0.05, true));
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < out.h.base.num_rows(); r += 2) {
    rows.push_back(r);
  }
  auto view = TableView::Create(
      out.h.base, out.h.shadow, std::move(rows),
      {"price", "neighborhood", "squarefootage", "propertytype",
       "bedroomcount", "city"});
  EXPECT_TRUE(view.ok());
  out.selected = view->AsTable();
  out.materialized = view->Materialize();
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
          const CategoryTree via_view,
          categorizer.Categorize(TableView::All(hs.selected, nullptr),
                                 hs.selected, no_query));
      ExpectSameTree(want, via_view, "Cost-based view" + m);
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
          const TableView view,
          TableView::Create(*table, shadow, rows, query.columns));
      results.push_back(view.AsTable());
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
