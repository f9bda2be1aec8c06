// Reference-vs-pipeline equivalence gate for the cold pipeline
// (DESIGN.md §14).
//
// RunColdPipeline promises that its selection, materialized result, and
// byte accounting are bit-identical to a sequential reference chain
// (CompiledPredicate::Filter at one thread -> TableView::Create ->
// Materialize, bytes counted by an independent copy of the cache's
// formula) at every thread count, and that its attribute index matches a
// from-scratch rescan of the result. These tests replay the checked-in
// SQL fuzz corpus and randomized queries over a deterministic table
// seeded with edge values (NaN, -0.0, 2^53+1, int64 extremes, NULLs) at
// threads {1, 2, 7, 16}, and pin both attribute-index strategies (the
// dense rank-filter over the per-table presorted order and the sparse
// gather-and-sort) to the same reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
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

using namespace equiv;  // NOLINT

const size_t kThreadCounts[] = {1, 2, 7, 16};

// The sequential reference chain: filter to a full selection at one
// thread, wrap it in a view, materialize.
struct ReferenceCold {
  std::vector<uint32_t> selection;
  Table result;
};

Result<ReferenceCold> RunReference(
    const Table& table, std::shared_ptr<const ColumnarTable> shadow,
    const CompiledPredicate& compiled,
    const std::vector<std::string>& columns) {
  ParallelOptions sequential;
  sequential.threads = 1;
  AUTOCAT_ASSIGN_OR_RETURN(std::vector<uint32_t> selection,
                           compiled.Filter(sequential));
  ReferenceCold out;
  out.selection = selection;
  AUTOCAT_ASSIGN_OR_RETURN(
      TableView view,
      TableView::Create(table, std::move(shadow), std::move(selection),
                        columns));
  out.result = view.Materialize();
  return out;
}

// Independent copy of the cache's byte accounting (ApproxTableBytes in
// storage/table.cc) for the pipeline's result, a selection over the
// shadow: the table object plus 4 bytes per selected row and per
// projected column. The shadow's cells are the database's, not charged.
size_t CacheBytes(const Table& table) {
  return sizeof(Table) +
         sizeof(uint32_t) * (table.num_rows() + table.num_columns());
}

void ExpectIndexesIdentical(const ResultAttributeIndex& a,
                            const ResultAttributeIndex& b,
                            const std::string& context) {
  ASSERT_EQ(a.num_rows, b.num_rows) << context;
  ASSERT_EQ(a.columns.size(), b.columns.size()) << context;
  for (size_t c = 0; c < a.columns.size(); ++c) {
    const AttributeIndexEntry& ea = a.columns[c];
    const AttributeIndexEntry& eb = b.columns[c];
    ASSERT_EQ(ea.has_sorted_values, eb.has_sorted_values)
        << context << " col " << c;
    ASSERT_EQ(ea.sorted_values.size(), eb.sorted_values.size())
        << context << " col " << c;
    for (size_t k = 0; k < ea.sorted_values.size(); ++k) {
      ASSERT_TRUE(BitIdentical(Value(ea.sorted_values[k].first),
                               Value(eb.sorted_values[k].first)))
          << context << " col " << c << " pair " << k;
      ASSERT_EQ(ea.sorted_values[k].second, eb.sorted_values[k].second)
          << context << " col " << c << " pair " << k;
    }
    ASSERT_EQ(ea.has_sorted_codes, eb.has_sorted_codes)
        << context << " col " << c;
    ASSERT_EQ(ea.sorted_codes, eb.sorted_codes) << context << " col " << c;
  }
}

// Parses and compiles `sql`; a query that does not parse or normalize to
// a profile is skipped and leaves `*compiled_out` empty. The profile
// compiler is total, so every profile must compile.
void CompileOrSkip(const std::string& sql, const Schema& schema,
                   const std::shared_ptr<const ColumnarTable>& shadow,
                   std::optional<CompiledPredicate>* compiled_out,
                   std::vector<std::string>* columns_out) {
  compiled_out->reset();
  auto query = ParseQuery(sql);
  if (!query.ok()) {
    return;
  }
  auto profile = SelectionProfile::FromQuery(query.value(), schema);
  if (!profile.ok()) {
    return;
  }
  auto compiled =
      CompiledPredicate::CompileProfile(profile.value(), schema, shadow);
  ASSERT_TRUE(compiled.ok()) << sql << ": " << compiled.status().ToString();
  *columns_out = query.value().columns;
  compiled_out->emplace(std::move(compiled).value());
}

// Runs the reference chain once and the pipeline at every thread count:
// selections, result tables, and byte accounting must be bit-identical,
// and the attribute index must not depend on the thread count.
void ExpectPipelineMatchesReference(
    const Table& table, const std::shared_ptr<const ColumnarTable>& shadow,
    const std::string& sql, size_t* compiled_queries) {
  std::optional<CompiledPredicate> compiled;
  std::vector<std::string> columns;
  CompileOrSkip(sql, table.schema(), shadow, &compiled, &columns);
  if (!compiled.has_value()) {
    return;
  }
  ++*compiled_queries;

  AUTOCAT_ASSERT_OK_AND_MOVE(
      const ReferenceCold reference,
      RunReference(table, shadow, compiled.value(), columns));
  const size_t expected_bytes = CacheBytes(reference.result);

  std::optional<ResultAttributeIndex> reference_index;
  for (const size_t threads : kThreadCounts) {
    ColdPipelineOptions options;
    options.parallel.threads = threads;
    AUTOCAT_ASSERT_OK_AND_MOVE(
        ColdPipelineResult piped,
        RunColdPipeline(compiled.value(), table, shadow.get(), columns,
                        options));
    const std::string context =
        sql + " (threads=" + std::to_string(threads) + ")";
    EXPECT_EQ(piped.selection, reference.selection) << context;
    ExpectTablesBitIdentical(reference.result, piped.result, context);
    EXPECT_EQ(piped.result_bytes, expected_bytes) << context;
    EXPECT_EQ(piped.timings.morsels,
              (table.num_rows() + kMorselRows - 1) / kMorselRows)
        << context;
    if (!reference_index.has_value()) {
      reference_index = std::move(piped.attr_index);
    } else {
      ExpectIndexesIdentical(reference_index.value(), piped.attr_index,
                             context);
    }
  }
}

// ----------------------------------------------------------- corpus replay

TEST(PipelineEquivalenceTest, FuzzCorpusLegacyVsPipeline) {
  // The table as the Database holds it: column-backed over its shadow.
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", MakeHomes(5000, 101, 0.08, true)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("homes"));
  const Table& table = *installed;
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));

  const std::filesystem::path corpus(AUTOCAT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  size_t replayed = 0;
  size_t compiled_queries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string sql((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    ExpectPipelineMatchesReference(table, shadow, sql, &compiled_queries);
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "corpus directory looks truncated";
  EXPECT_GE(compiled_queries, 5u)
      << "too few corpus queries compiled to be a meaningful gate";
}

// ------------------------------------------------------ randomized queries

TEST(PipelineEquivalenceTest, RandomizedQueriesLegacyVsPipeline) {
  const Schema schema = FuzzSchema();
  // 5000 rows = 3 morsels: morsel boundaries, a partial tail morsel, and
  // enough rows for both dense and sparse selections to occur.
  // The table as the Database holds it: column-backed over its shadow.
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", MakeHomes(5000, 202, 0.1, true)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("homes"));
  const Table& table = *installed;
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));

  Random rng(777);
  size_t compiled_queries = 0;
  // Roughly half the generated queries use OR and do not normalize to a
  // profile; 400 draws leave ~70 compiled conjunctions.
  for (int i = 0; i < 400; ++i) {
    std::string sql = RandomQuery(rng, schema);
    if (rng.Bernoulli(0.3)) {
      // Exercise the projection resolution too: prefix SELECT with an
      // explicit random column subset instead of *.
      std::string cols;
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (rng.Bernoulli(0.5)) {
          cols += (cols.empty() ? "" : ", ") + schema.column(c).name;
        }
      }
      if (!cols.empty()) {
        const size_t from = sql.find(" FROM ");
        sql = "SELECT " + cols + sql.substr(from);
      }
    }
    ExpectPipelineMatchesReference(table, shadow, sql, &compiled_queries);
  }
  EXPECT_GE(compiled_queries, 30u)
      << "too few queries normalized to a profile to be a meaningful gate";
}

// -------------------------------------------------- attribute-index shape

// From-scratch reference for the attribute index: rescan the
// materialized result exactly the way the partitioners would (NULL and
// NaN cells join no numeric bucket, so they have no pair; a string cell's
// key is its code in the base shadow's sorted dictionary).
void ExpectIndexMatchesRescan(const Table& result, const TableView& view,
                              const ResultAttributeIndex& index,
                              const std::string& context) {
  ASSERT_EQ(index.num_rows, result.num_rows()) << context;
  ASSERT_EQ(index.columns.size(), result.schema().num_columns()) << context;
  for (size_t c = 0; c < result.schema().num_columns(); ++c) {
    const AttributeIndexEntry& entry = index.columns[c];
    if (result.schema().column(c).kind == ColumnKind::kNumeric) {
      ASSERT_TRUE(entry.has_sorted_values) << context << " col " << c;
      ASSERT_FALSE(entry.has_sorted_codes) << context << " col " << c;
      std::vector<std::pair<double, size_t>> expected;
      for (size_t r = 0; r < result.num_rows(); ++r) {
        const Value v = result.CellValue(r, c);
        if (!v.is_null() && !std::isnan(v.AsDouble())) {
          expected.emplace_back(v.AsDouble(), r);
        }
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(entry.sorted_values, expected) << context << " col " << c;
    } else {
      ASSERT_TRUE(entry.has_sorted_codes) << context << " col " << c;
      ASSERT_FALSE(entry.has_sorted_values) << context << " col " << c;
      const std::vector<std::string>& dict =
          view.columnar()->column(view.base_column(c)).dict;
      std::vector<std::pair<uint32_t, uint32_t>> expected;
      for (size_t r = 0; r < result.num_rows(); ++r) {
        const Value v = result.CellValue(r, c);
        if (!v.is_null()) {
          const auto it =
              std::lower_bound(dict.begin(), dict.end(), v.string_value());
          ASSERT_TRUE(it != dict.end() && *it == v.string_value())
              << context << " col " << c;
          expected.emplace_back(static_cast<uint32_t>(it - dict.begin()),
                                static_cast<uint32_t>(r));
        }
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(entry.sorted_codes, expected) << context << " col " << c;
    }
  }
}

TEST(PipelineEquivalenceTest, AttrIndexMatchesRescanOnBothStrategies) {
  // The table as the Database holds it: column-backed over its shadow.
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", MakeHomes(6000, 303, 0.1, true)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("homes"));
  const Table& table = *installed;
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));

  // The dense queries keep well over 1/16 of the base rows alive, forcing
  // the rank-filter walk over the per-table presorted order (for both an
  // int64 and a double column); the sparse ones select a sliver, forcing
  // the gather-and-sort path. Both must land on the identical index.
  const char* const kQueries[] = {
      "SELECT * FROM homes WHERE price >= 0",                  // dense
      "SELECT * FROM homes WHERE bedroomcount >= 0",           // dense
      "SELECT * FROM homes WHERE yearbuilt >= 1900",           // dense
      "SELECT * FROM homes WHERE price BETWEEN 50000 AND 60000",  // sparse
      "SELECT * FROM homes WHERE neighborhood = 'Ballard' AND "
      "bedroomcount = 3",                                      // sparse
      "SELECT * FROM homes WHERE price < 0",                   // empty
  };
  for (const char* sql : kQueries) {
    std::optional<CompiledPredicate> compiled;
    std::vector<std::string> columns;
    CompileOrSkip(sql, table.schema(), shadow, &compiled, &columns);
    ASSERT_TRUE(compiled.has_value()) << sql;
    for (const size_t threads : kThreadCounts) {
      ColdPipelineOptions options;
      options.parallel.threads = threads;
      AUTOCAT_ASSERT_OK_AND_MOVE(
          ColdPipelineResult piped,
          RunColdPipeline(compiled.value(), table, shadow.get(), columns,
                          options));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          const TableView view,
          TableView::Create(table, shadow, piped.selection, columns));
      ExpectIndexMatchesRescan(
          piped.result, view, piped.attr_index,
          std::string(sql) + " (threads=" + std::to_string(threads) + ")");
    }
  }
}

TEST(PipelineEquivalenceTest, StatsAttributesRestrictIndexEntries) {
  // The table as the Database holds it: column-backed over its shadow.
  Database db;
  ASSERT_TRUE(
      db.RegisterTable("homes", MakeHomes(3000, 404, 0.05, false)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("homes"));
  const Table& table = *installed;
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));
  std::optional<CompiledPredicate> compiled;
  std::vector<std::string> columns;
  CompileOrSkip("SELECT * FROM homes WHERE price >= 100000", table.schema(),
                shadow, &compiled, &columns);
  ASSERT_TRUE(compiled.has_value());

  const std::vector<std::string> retained = {"price", "neighborhood"};
  ColdPipelineOptions options;
  options.stats_attributes = &retained;
  AUTOCAT_ASSERT_OK_AND_MOVE(
      ColdPipelineResult piped,
      RunColdPipeline(compiled.value(), table, shadow.get(), columns,
                      options));
  ASSERT_EQ(piped.attr_index.columns.size(),
            table.schema().num_columns());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const std::string& name = table.schema().column(c).name;
    const AttributeIndexEntry& entry = piped.attr_index.columns[c];
    if (name == "price") {
      EXPECT_TRUE(entry.has_sorted_values) << name;
    } else if (name == "neighborhood") {
      EXPECT_TRUE(entry.has_sorted_codes) << name;
    } else {
      EXPECT_FALSE(entry.has_sorted_values) << name;
      EXPECT_FALSE(entry.has_sorted_codes) << name;
    }
  }
  EXPECT_EQ(piped.attr_index.num_rows, piped.result.num_rows());

  // An empty retained list still reports the row count (the index's
  // num_rows doubles as the result cardinality check in Categorize) but
  // builds no entries at all.
  const std::vector<std::string> none;
  options.stats_attributes = &none;
  AUTOCAT_ASSERT_OK_AND_MOVE(
      ColdPipelineResult bare,
      RunColdPipeline(compiled.value(), table, shadow.get(), columns,
                      options));
  EXPECT_EQ(bare.attr_index.num_rows, piped.result.num_rows());
  for (const AttributeIndexEntry& entry : bare.attr_index.columns) {
    EXPECT_FALSE(entry.has_sorted_values);
    EXPECT_FALSE(entry.has_sorted_codes);
  }
}

TEST(PipelineEquivalenceTest, EmptyTableAndUnknownProjectionColumn) {
  // The table as the Database holds it: column-backed over its shadow.
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", MakeHomes(0, 606, 0.0, false)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db.GetTable("homes"));
  const Table& table = *installed;
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));
  std::optional<CompiledPredicate> compiled;
  std::vector<std::string> columns;
  CompileOrSkip("SELECT * FROM homes WHERE price >= 0", table.schema(),
                shadow, &compiled, &columns);
  ASSERT_TRUE(compiled.has_value());

  ColdPipelineOptions options;
  AUTOCAT_ASSERT_OK_AND_MOVE(
      ColdPipelineResult piped,
      RunColdPipeline(compiled.value(), table, shadow.get(), columns,
                      options));
  EXPECT_TRUE(piped.selection.empty());
  EXPECT_EQ(piped.result.num_rows(), 0u);
  EXPECT_EQ(piped.attr_index.num_rows, 0u);

  // Unknown projection columns error exactly as TableView::Create does.
  const auto bad = RunColdPipeline(compiled.value(), table, shadow.get(),
                                   {"bogus"}, options);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound)
      << bad.status().ToString();
}

}  // namespace
}  // namespace autocat
