// Reference-vs-pipeline equivalence gate for the cold pipeline
// (DESIGN.md §14).
//
// RunColdPipeline promises that its selection, result table, and byte
// accounting are bit-identical to a sequential reference chain (the rows
// SelectionProfile::MatchesRow keeps -> a builder copy of those rows,
// bytes counted by an independent copy of the cache's formula) at every
// thread count, and that its attribute index matches a from-scratch
// rescan of the result. The reference never runs a compiled kernel, so
// the pipeline's filter is held against the row oracle. These tests
// replay the checked-in SQL fuzz corpus and randomized queries over a
// deterministic table seeded with edge values (NaN, -0.0, 2^53+1, int64
// extremes, NULLs) at threads {1, 2, 7, 16}, and pin the attribute
// index over both kinds of column (a built shadow's, which carry codes,
// and a mapped segment store's numeric ones, which are ranked per
// request) to the same from-scratch reference.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
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
#include "storage/attr_index.h"
#include "storage/table.h"
#include "store/store.h"
#include "store/writer.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

using namespace equiv;  // NOLINT

const size_t kThreadCounts[] = {1, 2, 7, 16};

// The sequential reference chain: the rows MatchesRow keeps, in order,
// then a builder copy of those rows.
struct ReferenceCold {
  std::vector<uint32_t> selection;
  Table result;
};

Result<ReferenceCold> RunReference(const Table& table,
                                   const SelectionProfile& profile,
                                   const std::vector<std::string>& columns) {
  ReferenceCold out;
  std::vector<size_t> rows;
  Row scratch;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (profile.MatchesRow(table.RowRef(r, &scratch), table.schema())) {
      out.selection.push_back(static_cast<uint32_t>(r));
      rows.push_back(r);
    }
  }
  AUTOCAT_ASSIGN_OR_RETURN(out.result,
                           SelectProjectRows(table, rows, columns));
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
    ASSERT_EQ(ea.has_sorted_keys, eb.has_sorted_keys)
        << context << " col " << c;
    ASSERT_EQ(ea.sorted_keys, eb.sorted_keys) << context << " col " << c;
  }
}

// Parses and compiles `sql`; a query that does not parse or normalize to
// a profile is skipped and leaves `*compiled_out` empty. The profile
// compiler is total, so every profile must compile. `profile_out`, when
// given, receives the compiled profile.
void CompileOrSkip(const std::string& sql, const Schema& schema,
                   const std::shared_ptr<const ColumnarTable>& shadow,
                   std::optional<CompiledPredicate>* compiled_out,
                   std::vector<std::string>* columns_out,
                   SelectionProfile* profile_out = nullptr) {
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
  if (profile_out != nullptr) {
    *profile_out = std::move(profile).value();
  }
}

// Runs the reference chain once and the pipeline at every thread count:
// selections, result tables, and byte accounting must be bit-identical,
// and the attribute index must not depend on the thread count.
void ExpectPipelineMatchesReference(
    const Table& table, const std::shared_ptr<const ColumnarTable>& shadow,
    const std::string& sql, size_t* compiled_queries) {
  std::optional<CompiledPredicate> compiled;
  std::vector<std::string> columns;
  SelectionProfile profile;
  CompileOrSkip(sql, table.schema(), shadow, &compiled, &columns, &profile);
  if (!compiled.has_value()) {
    return;
  }
  ++*compiled_queries;

  AUTOCAT_ASSERT_OK_AND_MOVE(const ReferenceCold reference,
                             RunReference(table, profile, columns));
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

// From-scratch reference for the attribute index: rescan the result's
// cells under each column's declared kind (numeric: as doubles, so 2^53
// and 2^53 + 1 tie; categorical: by Value order, exact for int64). Every
// entry lists the positions of the non-NULL, non-NaN cells in (value,
// position) order, its key rises exactly where the value does, and a
// column that carries codes in its shadow is keyed by them.
void ExpectIndexMatchesRescan(const Table& result, const TableView& view,
                              const ResultAttributeIndex& index,
                              const std::string& context) {
  ASSERT_EQ(index.num_rows, result.num_rows()) << context;
  ASSERT_EQ(index.columns.size(), result.schema().num_columns()) << context;
  for (size_t c = 0; c < result.schema().num_columns(); ++c) {
    const std::string at = context + " col " + std::to_string(c);
    const AttributeIndexEntry& entry = index.columns[c];
    ASSERT_TRUE(entry.has_sorted_keys) << at;
    const bool numeric =
        result.schema().column(c).kind == ColumnKind::kNumeric;
    const auto less = [numeric](const Value& a, const Value& b) {
      return numeric ? a.AsDouble() < b.AsDouble() : a < b;
    };
    std::vector<std::pair<Value, uint32_t>> expected;
    for (size_t r = 0; r < result.num_rows(); ++r) {
      Value v = result.CellValue(r, c);
      if (!v.is_null() && !(v.is_double() && std::isnan(v.double_value()))) {
        expected.emplace_back(std::move(v), static_cast<uint32_t>(r));
      }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [&less](const auto& a, const auto& b) {
                       return less(a.first, b.first);
                     });
    const std::vector<KeyOrderEntry>& got = entry.sorted_keys;
    ASSERT_EQ(got.size(), expected.size()) << at;
    const ColumnarTable::Column& column =
        view.columnar()->column(view.base_column(c));
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].second, expected[i].second) << at << " entry " << i;
      if (i > 0) {
        ASSERT_EQ(got[i - 1].first < got[i].first,
                  less(expected[i - 1].first, expected[i].first))
            << at << " entry " << i;
        ASSERT_LE(got[i - 1].first, got[i].first) << at << " entry " << i;
      }
      if (!column.codes.empty()) {
        ASSERT_EQ(got[i].first, column.codes[view.base_row(got[i].second)])
            << at << " entry " << i;
      }
    }
  }
}

// Writes `rows` (in order) as table `name` of a new segment store at
// `path` and registers it into `db`, whose table then maps it.
void AttachStoreCopy(const Table& rows, const std::string& name,
                     const std::string& path, Database* db) {
  StoreWriterOptions options;
  AUTOCAT_ASSERT_OK_AND_MOVE(std::unique_ptr<StoreWriter> writer,
                             StoreWriter::Create(path, options));
  ASSERT_TRUE(writer->BeginTable(name, rows.schema()).ok());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    ASSERT_TRUE(writer->Append(rows.row(r)).ok());
  }
  ASSERT_TRUE(writer->FinishTable().ok());
  ASSERT_TRUE(writer->Finish().ok());
  const Status attached = AttachStoreTables(path, db);
  ASSERT_TRUE(attached.ok()) << attached.ToString();
}

TEST(PipelineEquivalenceTest, AttrIndexMatchesRescanOnBothStrategies) {
  // The same rows as a built shadow (every column carries codes: string
  // dictionary codes and numeric rank codes) and as a mapped segment store
  // (numeric columns carry none and are ranked per request).
  const Table homes = MakeHomes(6000, 303, 0.1, true);
  Database shadow_db;
  ASSERT_TRUE(shadow_db.RegisterTable("homes", Table(homes)).ok());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("autocat_pipeline_index_" + std::to_string(::getpid()) + ".store"))
          .string();
  Database store_db;
  AttachStoreCopy(homes, "homes", path, &store_db);
  std::error_code ec;
  std::filesystem::remove(path, ec);  // the mapping keeps the data alive
  ASSERT_FALSE(HasFatalFailure());

  // A floor area held by exactly one row selects a one-row result (a
  // price would not: NaN prices match every price range).
  const size_t sqft = homes.schema().ColumnIndex("squarefootage").value();
  std::map<double, size_t> sqft_count;
  for (size_t r = 0; r < homes.num_rows(); ++r) {
    const Value v = homes.CellValue(r, sqft);
    if (!v.is_null()) {
      ++sqft_count[v.double_value()];
    }
  }
  std::string one_row;
  for (const auto& [value, count] : sqft_count) {
    if (count == 1) {
      char literal[64];
      std::snprintf(literal, sizeof(literal), "%.17g", value);
      one_row =
          std::string("SELECT * FROM homes WHERE squarefootage BETWEEN ") +
          literal + " AND " + literal;
      break;
    }
  }
  ASSERT_FALSE(one_row.empty());
  const struct {
    std::string sql;
    size_t min_rows;
    size_t max_rows;
  } kQueries[] = {
      {"SELECT * FROM homes WHERE bedroomcount BETWEEN 100 AND 200", 0, 0},
      {one_row, 1, 1},
      {"SELECT * FROM homes WHERE price BETWEEN 50000 AND 60000", 2, 600},
      {"SELECT * FROM homes WHERE neighborhood = 'Ballard' AND "
       "bedroomcount = 3", 2, 600},
      {"SELECT * FROM homes WHERE bedroomcount >= 0", 3000, 5999},
      {"SELECT price, yearbuilt, city FROM homes WHERE yearbuilt >= 1900",
       3000, 5999},
      {"SELECT * FROM homes", 6000, 6000},
  };
  for (const Database* db : {&shadow_db, &store_db}) {
    const std::string input = db == &shadow_db ? "shadow" : "store";
    AUTOCAT_ASSERT_OK_AND_MOVE(const Table* installed, db->GetTable("homes"));
    AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                               db->ColumnarFor("homes"));
    const size_t price_col =
        installed->schema().ColumnIndex("price").value();
    EXPECT_EQ(shadow->column(price_col).codes.empty(), db == &store_db)
        << input;
    for (const auto& query : kQueries) {
      std::optional<CompiledPredicate> compiled;
      std::vector<std::string> columns;
      CompileOrSkip(query.sql, installed->schema(), shadow, &compiled,
                    &columns);
      ASSERT_TRUE(compiled.has_value()) << query.sql;
      for (const size_t threads : kThreadCounts) {
        const std::string context = input + ": " + query.sql +
                                    " (threads=" + std::to_string(threads) +
                                    ")";
        ColdPipelineOptions options;
        options.parallel.threads = threads;
        AUTOCAT_ASSERT_OK_AND_MOVE(
            ColdPipelineResult piped,
            RunColdPipeline(compiled.value(), *installed, shadow.get(),
                            columns, options));
        ASSERT_GE(piped.selection.size(), query.min_rows) << context;
        ASSERT_LE(piped.selection.size(), query.max_rows) << context;
        AUTOCAT_ASSERT_OK_AND_MOVE(
            const TableView view,
            TableView::Create(*installed, shadow, piped.selection, columns));
        ExpectIndexMatchesRescan(piped.result, view, piped.attr_index,
                                 context);
      }
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
    const bool retained_column = name == "price" || name == "neighborhood";
    EXPECT_EQ(entry.has_sorted_keys, retained_column) << name;
    if (!retained_column) {
      EXPECT_TRUE(entry.sorted_keys.empty()) << name;
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
    EXPECT_FALSE(entry.has_sorted_keys);
    EXPECT_TRUE(entry.sorted_keys.empty());
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
