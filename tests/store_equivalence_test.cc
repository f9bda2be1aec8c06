// Store-vs-memory equivalence gate: a table served zero-copy out of a
// mapped segment store must behave bit-identically to its in-memory twin
// — same result cells (doubles by bit pattern), same row order, same
// error Statuses — through every execution path: ExecuteSql's
// row-at-a-time evaluator, the compiled profile kernels at threads 1 and
// 7, and a cold CategorizationService request. Replays the checked-in SQL
// fuzz corpus plus randomized queries over a table seeded with hostile
// cells. Beneath that, StoreShadowTest requires every array of every
// mapped column to equal ColumnarTable::Build of the same rows, bit for
// bit.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/partition.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "serve/service.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "store/store.h"
#include "store/writer.h"
#include "workload/workload.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

namespace fs = std::filesystem;

// The homes schema of the SQL fuzz harness: corpus queries reference
// exactly these columns and types.
Schema FuzzSchema() {
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

const char* const kNeighborhoods[] = {"Redmond",  "Bellevue", "Seattle",
                                      "Kirkland", "Ballard",  "Queen Anne"};
const char* const kCities[] = {"Seattle", "Bellevue", "Redmond"};
const char* const kTypes[] = {"Single Family", "Condo", "Townhome"};

// Deterministic rows over FuzzSchema with NULLs and hostile cells (NaN,
// signed zeros, int64 extremes, 2^53 + 1) — the same value population as
// the columnar equivalence gate.
std::vector<Row> MakeHomesRows(size_t n, uint64_t seed, double null_p,
                               bool with_hostile_cells) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
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
      price = 25000.0 * rng.Uniform(2, 30);
    }
    cell(Value(price));
    cell(Value(rng.Uniform(0, 8)));
    cell(Value(0.25 * rng.Uniform(4, 20)));
    cell(Value(rng.UniformReal(300, 8000)));
    cell(Value(rng.Uniform(1900, 2026)));
    if (with_hostile_cells && i % 17 == 0) {
      switch (i / 17 % 6) {
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
    rows.push_back(std::move(row));
  }
  return rows;
}

bool BitIdentical(const Value& a, const Value& b) {
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

void ExpectTablesBitIdentical(const Table& expected, const Table& got,
                              const std::string& context) {
  ASSERT_EQ(expected.num_rows(), got.num_rows()) << context;
  ASSERT_EQ(expected.schema().num_columns(), got.schema().num_columns())
      << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.schema().num_columns(); ++c) {
      ASSERT_TRUE(
          BitIdentical(expected.CellValue(r, c), got.CellValue(r, c)))
          << context << " differs at row " << r << " col " << c << ": "
          << expected.CellValue(r, c).ToString() << " vs "
          << got.CellValue(r, c).ToString();
    }
  }
}

// Shared fixture: the same rows registered twice — once as an in-memory
// row table, once round-tripped through a store file and mapped back.
class StoreEquivalenceFixture {
 public:
  StoreEquivalenceFixture(size_t n, uint64_t seed, double null_p,
                          bool hostile, const std::string& tag) {
    store_path_ = (fs::temp_directory_path() /
                   ("autocat_store_equiv_" + tag + "_" +
                    std::to_string(::getpid()) + ".store"))
                      .string();
    const Schema schema = FuzzSchema();
    const std::vector<Row> rows = MakeHomesRows(n, seed, null_p, hostile);

    Table mem(schema);
    for (const Row& row : rows) {
      EXPECT_TRUE(mem.AppendRow(row).ok());
    }
    EXPECT_TRUE(mem_db_.RegisterTable("homes", std::move(mem)).ok());

    StoreWriterOptions options;
    options.memory_budget_bytes = 32 << 10;  // force spill runs
    auto writer = StoreWriter::Create(store_path_, options);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE(writer.value()->BeginTable("homes", schema).ok());
    for (const Row& row : rows) {
      EXPECT_TRUE(writer.value()->Append(row).ok());
    }
    EXPECT_TRUE(writer.value()->FinishTable().ok());
    EXPECT_TRUE(writer.value()->Finish().ok());
    EXPECT_TRUE(AttachStoreTables(store_path_, &store_db_).ok());
  }

  ~StoreEquivalenceFixture() {
    std::error_code ec;
    fs::remove(store_path_, ec);
  }

  // Runs `sql` through ExecuteSql over the memory and the store table
  // and requires one shared outcome. When the query normalizes to a
  // selection profile, also compiles it against both shadows and requires
  // identical Filter selections at threads 1 and 7.
  void ExpectEquivalent(const std::string& sql) const {
    const Result<Table> mem = ExecuteSql(sql, mem_db_);
    const Result<Table> store = ExecuteSql(sql, store_db_);
    ASSERT_EQ(mem.ok(), store.ok())
        << sql << ": " << (mem.ok() ? store : mem).status().ToString();
    if (mem.ok()) {
      ExpectTablesBitIdentical(mem.value(), store.value(), sql);
    } else {
      EXPECT_EQ(mem.status().ToString(), store.status().ToString()) << sql;
    }

    auto query = ParseQuery(sql);
    if (!query.ok()) {
      return;
    }
    const Schema schema = FuzzSchema();
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    if (!profile.ok()) {
      return;
    }
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const CompiledPredicate on_mem,
        CompiledPredicate::CompileProfile(
            profile.value(), schema, mem_db_.ColumnarFor("homes").value()));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const CompiledPredicate on_store,
        CompiledPredicate::CompileProfile(
            profile.value(), schema, store_db_.ColumnarFor("homes").value()));
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      ParallelOptions parallel;
      parallel.threads = threads;
      AUTOCAT_ASSERT_OK_AND_MOVE(const std::vector<uint32_t> mem_rows,
                                 on_mem.Filter(parallel));
      AUTOCAT_ASSERT_OK_AND_MOVE(const std::vector<uint32_t> store_rows,
                                 on_store.Filter(parallel));
      EXPECT_EQ(mem_rows, store_rows)
          << sql << " (threads=" << threads << ")";
    }
  }

  const Database& mem_db() const { return mem_db_; }
  const Database& store_db() const { return store_db_; }
  const std::string& store_path() const { return store_path_; }

 private:
  std::string store_path_;
  Database mem_db_;
  Database store_db_;
};

TEST(StoreEquivalenceTest, FuzzCorpusStoreVsMemory) {
  const StoreEquivalenceFixture f(500, 101, 0.08, true, "corpus");
  const fs::path corpus(AUTOCAT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus));
  size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string sql((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    f.ExpectEquivalent(sql);
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "corpus directory looks truncated";
}

std::string RandomLiteral(Random& rng, size_t col) {
  if (col <= 2) {
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

std::string RandomCondition(Random& rng, const Schema& schema) {
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
    case 3:
      return name + (rng.Bernoulli(0.3) ? " NOT BETWEEN " : " BETWEEN ") +
             RandomLiteral(rng, lit_col) + " AND " +
             RandomLiteral(rng, lit_col);
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

TEST(StoreEquivalenceTest, RandomizedQueriesStoreVsMemory) {
  const StoreEquivalenceFixture f(600, 202, 0.1, true, "random");
  const Schema schema = FuzzSchema();
  Random rng(778);
  for (int i = 0; i < 150; ++i) {
    std::string sql = "SELECT * FROM homes WHERE ";
    const int64_t conds = rng.Uniform(1, 3);
    for (int64_t c = 0; c < conds; ++c) {
      if (c > 0) {
        sql += rng.Bernoulli(0.5) ? " AND " : " OR ";
      }
      sql += RandomCondition(rng, schema);
    }
    f.ExpectEquivalent(sql);
  }
}

TEST(StoreEquivalenceTest, TableOperatorsStoreVsMemory) {
  const StoreEquivalenceFixture f(400, 303, 0.1, false, "ops");
  const Table& mem = **f.mem_db().GetTable("homes");
  const Table& mapped = **f.store_db().GetTable("homes");
  // Both are column-backed: the in-memory one over the shadow its
  // Database built, the mapped one over the store.
  ASSERT_FALSE(mem.has_rows());
  ASSERT_FALSE(mapped.has_rows());
  ASSERT_NE(mem.columnar_backing(), mapped.columnar_backing());

  // Whole-table scan equivalence.
  ExpectTablesBitIdentical(mem, mapped, "identity");

  // Projection and row selection, as views of each.
  std::vector<uint32_t> all(mem.num_rows());
  std::iota(all.begin(), all.end(), uint32_t{0});
  std::vector<uint32_t> picks;
  for (uint32_t r = 0; r < mem.num_rows(); r += 3) {
    picks.push_back(r);
  }
  const struct {
    const char* name;
    const std::vector<uint32_t>& rows;
    std::vector<std::string> columns;
  } kViews[] = {{"project", all, {"price", "neighborhood"}},
                {"select", picks, {}}};
  for (const auto& v : kViews) {
    auto v_mem = Table::Select(mem, nullptr, v.rows, v.columns);
    auto v_map = Table::Select(mapped, nullptr, v.rows, v.columns);
    ASSERT_TRUE(v_mem.ok() && v_map.ok()) << v.name;
    ExpectTablesBitIdentical(v_mem.value(), v_map.value(), v.name);
  }

  // The partitioners read the mapped table's backing directly, so they
  // take their typed paths on it and agree with the in-memory table.
  ASSERT_FALSE(mapped.has_rows());
  std::vector<size_t> all_rows(mem.num_rows());
  for (size_t r = 0; r < all_rows.size(); ++r) {
    all_rows[r] = r;
  }
  auto c_mem = PartitionCategoricalArbitrary(mem, all_rows,
                                             "neighborhood", nullptr);
  auto c_map = PartitionCategoricalArbitrary(mapped, all_rows,
                                             "neighborhood", nullptr);
  ASSERT_TRUE(c_mem.ok() && c_map.ok());
  equiv::ExpectPartitionsIdentical(c_mem.value(), c_map.value(), "neighborhood");
  auto n_mem = PartitionNumericEquiWidth(mem, all_rows, "price",
                                         50000, nullptr);
  auto n_map = PartitionNumericEquiWidth(mapped, all_rows, "price",
                                         50000, nullptr);
  ASSERT_TRUE(n_mem.ok() && n_map.ok());
  equiv::ExpectPartitionsIdentical(n_mem.value(), n_map.value(), "price");

  // Appends are refused on the mapped table.
  Table& mutable_mapped = const_cast<Table&>(mapped);
  Row scratch;
  EXPECT_FALSE(mutable_mapped.AppendRow(mem.RowRef(0, &scratch)).ok());
}

// Cold-serve equivalence: two services over the same workload — one with
// the in-memory table, one with the mapped store — must produce
// bit-identical result tables and category trees for cache-miss
// requests.
TEST(StoreEquivalenceTest, ColdServeStoreVsMemory) {
  const StoreEquivalenceFixture f(500, 404, 0.05, false, "serve");
  const Schema schema = FuzzSchema();
  const std::vector<std::string> sqls = {
      "SELECT * FROM homes WHERE price BETWEEN 100000 AND 400000",
      "SELECT * FROM homes WHERE neighborhood IN ('Redmond', 'Bellevue') "
      "AND bedroomcount >= 2",
      "SELECT * FROM homes WHERE propertytype = 'Condo'",
      "SELECT * FROM homes WHERE yearbuilt >= 1990 AND squarefootage "
      "BETWEEN 1000 AND 3000",
  };
  const Workload workload = Workload::Parse(sqls, schema, nullptr);
  ASSERT_EQ(workload.size(), sqls.size());

  auto make_service = [&](const Database& source) {
    Database db;
    const Result<const Table*> table = source.GetTable("homes");
    EXPECT_TRUE(table.ok());
    // The copy shares the shadow or the mapping.
    EXPECT_TRUE(db.RegisterTable("homes", *table.value()).ok());
    ServiceOptions options;
    options.stats.split_intervals = {{"price", 5000},
                                     {"squarefootage", 100},
                                     {"yearbuilt", 5},
                                     {"bedroomcount", 1},
                                     {"bathcount", 1}};
    return std::make_unique<CategorizationService>(
        std::move(db), Workload(workload), std::move(options));
  };
  auto mem_service = make_service(f.mem_db());
  auto store_service = make_service(f.store_db());

  for (const std::string& sql : sqls) {
    ServeRequest request;
    request.sql = sql;
    request.bypass_cache = true;  // always the cold path
    const Result<ServeResponse> mem_r = mem_service->Handle(request);
    const Result<ServeResponse> store_r = store_service->Handle(request);
    ASSERT_EQ(mem_r.ok(), store_r.ok()) << sql;
    if (!mem_r.ok()) {
      continue;
    }
    const CachedCategorization& a = *mem_r.value().payload;
    const CachedCategorization& b = *store_r.value().payload;
    ExpectTablesBitIdentical(a.result(), b.result(), "serve: " + sql);
    ASSERT_EQ(a.tree().num_nodes(), b.tree().num_nodes()) << sql;
    EXPECT_EQ(a.tree().level_attributes(), b.tree().level_attributes())
        << sql;
    for (size_t id = 0; id < a.tree().num_nodes(); ++id) {
      const CategoryNode& na = a.tree().node(static_cast<NodeId>(id));
      const CategoryNode& nb = b.tree().node(static_cast<NodeId>(id));
      EXPECT_EQ(na.parent, nb.parent) << sql << " node " << id;
      EXPECT_EQ(na.children, nb.children) << sql << " node " << id;
      EXPECT_EQ(na.tuples, nb.tuples) << sql << " node " << id;
      EXPECT_EQ(na.label.ToString(), nb.label.ToString())
          << sql << " node " << id;
    }
  }
}

// ------------------------------------------------------- mapped shadow

// Element-wise bit equality of two arrays.
template <typename T>
void ExpectSameBits(const T* built, size_t built_size, const T* mapped,
                    size_t mapped_size, const std::string& what) {
  ASSERT_EQ(built_size, mapped_size) << what;
  for (size_t i = 0; i < built_size; ++i) {
    ASSERT_EQ(std::memcmp(&built[i], &mapped[i], sizeof(T)), 0)
        << what << " differs at " << i;
  }
}

template <typename T>
void ExpectSameBits(ColumnSpan<T> built, ColumnSpan<T> mapped,
                    const std::string& what) {
  ExpectSameBits(built.data(), built.size(), mapped.data(), mapped.size(),
                 what);
}

template <typename T>
void ExpectSameBits(const std::vector<T>& built, const std::vector<T>& mapped,
                    const std::string& what) {
  ExpectSameBits(built.data(), built.size(), mapped.data(), mapped.size(),
                 what);
}

// Writes `rows` to a store through a spilling writer — sorted by
// `sort_column` unless it is empty — and requires every array of every
// mapped column to equal, bit for bit, the one `ColumnarTable::Build`
// derives from the same rows in stored order.
void ExpectMappedEqualsBuilt(const Schema& schema, std::vector<Row> rows,
                             const std::string& sort_column,
                             const std::string& tag) {
  const std::string path =
      (fs::temp_directory_path() / ("autocat_store_shadow_" + tag + "_" +
                                    std::to_string(::getpid()) + ".store"))
          .string();
  StoreWriterOptions options;
  options.memory_budget_bytes = 16 << 10;  // force spill runs
  if (!sort_column.empty()) {
    options.sort_columns = {sort_column};
  }
  {
    AUTOCAT_ASSERT_OK_AND_MOVE(std::unique_ptr<StoreWriter> writer,
                               StoreWriter::Create(path, options));
    ASSERT_TRUE(writer->BeginTable("t", schema).ok());
    for (const Row& row : rows) {
      ASSERT_TRUE(writer->Append(row).ok());
    }
    ASSERT_TRUE(writer->FinishTable().ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  AUTOCAT_ASSERT_OK_AND_MOVE(const SegmentStore store,
                             SegmentStore::Open(path));
  AUTOCAT_ASSERT_OK_AND_MOVE(const Table mapped, store.OpenTable("t"));
  fs::remove(path);

  if (!sort_column.empty()) {
    const size_t key = schema.ColumnIndex(sort_column).value();
    std::stable_sort(rows.begin(), rows.end(),
                     [key](const Row& a, const Row& b) {
                       return a[key].Compare(b[key]) < 0;
                     });
  }
  Table builder(schema);
  ASSERT_TRUE(builder.AppendRows(std::move(rows)).ok());
  const ColumnarTable built = ColumnarTable::Build(builder);
  const ColumnarTable& got = *mapped.columnar_backing();
  ASSERT_EQ(got.num_rows(), built.num_rows()) << tag;
  ASSERT_EQ(got.num_columns(), built.num_columns()) << tag;
  for (size_t c = 0; c < built.num_columns(); ++c) {
    const ColumnarTable::Column& want = built.column(c);
    const ColumnarTable::Column& have = got.column(c);
    const std::string what = tag + " col " + schema.column(c).name;
    EXPECT_EQ(have.type, want.type) << what;
    EXPECT_EQ(have.null_count, want.null_count) << what;
    ExpectSameBits(want.null_words, have.null_words, what + " null words");
    ExpectSameBits(want.i64, have.i64, what + " int64 values");
    ExpectSameBits(want.f64, have.f64, what + " double values");
    ExpectSameBits(want.codes, have.codes, what + " codes");
    EXPECT_EQ(have.dict, want.dict) << what;
    ExpectSameBits(want.posting_offsets, have.posting_offsets,
                   what + " posting offsets");
    ExpectSameBits(want.posting_rows, have.posting_rows,
                   what + " posting rows");
    ASSERT_EQ(have.zones.size(), want.zones.size()) << what;
    for (size_t z = 0; z < want.zones.size(); ++z) {
      const ZoneEntry& w = want.zones[z];
      const ZoneEntry& h = have.zones[z];
      EXPECT_EQ(h.row_count, w.row_count) << what << " zone " << z;
      EXPECT_EQ(h.valid_count, w.valid_count) << what << " zone " << z;
      EXPECT_EQ(h.min_bits, w.min_bits) << what << " zone " << z;
      EXPECT_EQ(h.max_bits, w.max_bits) << what << " zone " << z;
      EXPECT_EQ(h.has_nan, w.has_nan) << what << " zone " << z;
    }
  }
}

// Every numeric column under both kinds, and a string column.
Schema ShadowSchema() {
  auto schema = Schema::Create({
      ColumnDef("i_num", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("i_cat", ValueType::kInt64, ColumnKind::kCategorical),
      ColumnDef("d_num", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("d_cat", ValueType::kDouble, ColumnKind::kCategorical),
      ColumnDef("s", ValueType::kString, ColumnKind::kCategorical),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

// `n` rows whose cells are drawn from the hostile values: NULL, NaN,
// ±0.0, the int64 extremes, and 2^53 beside 2^53 + 1 (one value under
// the numeric kind, two under the categorical), among ordinary ones.
std::vector<Row> HostileShadowRows(size_t n, uint64_t seed) {
  const int64_t two53 = int64_t{1} << 53;
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(),
                          two53,
                          two53 + 1,
                          -two53 - 1,
                          0,
                          -7,
                          42};
  const double doubles[] = {std::numeric_limits<double>::quiet_NaN(),
                            0.0,
                            -0.0,
                            static_cast<double>(two53),
                            -1.5,
                            1e300,
                            -std::numeric_limits<double>::infinity(),
                            2.25};
  const char* const strings[] = {"", "a", "b", "Queen Anne"};
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto cell = [&rng](Value v) {
      return rng.Bernoulli(0.15) ? Value() : std::move(v);
    };
    const auto pick = [&rng](size_t size) {
      return static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(size) - 1));
    };
    const int64_t i_ord = rng.Uniform(-1000, 1000);
    const double d_ord = rng.UniformReal(-10, 10);
    rows.push_back({
        cell(Value(rng.Bernoulli(0.5) ? ints[pick(8)] : i_ord)),
        cell(Value(rng.Bernoulli(0.5) ? ints[pick(8)] : i_ord)),
        cell(Value(rng.Bernoulli(0.5) ? doubles[pick(8)] : d_ord)),
        cell(Value(rng.Bernoulli(0.5) ? doubles[pick(8)] : d_ord)),
        cell(Value(strings[pick(4)])),
    });
  }
  return rows;
}

// Two zones plus a tail, in input order and sorted by an int64 column of
// each kind and by the string column, all through spilling writes. (A
// double sort column would hold NaN, which `Value::Compare` leaves
// unordered, so the stored order would not be a function of the rows.)
TEST(StoreShadowTest, HostileCellsMatchBuildBitForBit) {
  const std::vector<Row> rows = HostileShadowRows(2 * kZoneRows + 300, 53);
  ExpectMappedEqualsBuilt(ShadowSchema(), rows, "", "input_order");
  ExpectMappedEqualsBuilt(ShadowSchema(), rows, "i_num", "by_i_num");
  ExpectMappedEqualsBuilt(ShadowSchema(), rows, "i_cat", "by_i_cat");
  ExpectMappedEqualsBuilt(ShadowSchema(), rows, "s", "by_s");
}

TEST(StoreShadowTest, EmptyAndAllNullTablesMatchBuild) {
  ExpectMappedEqualsBuilt(ShadowSchema(), {}, "", "empty");
  ExpectMappedEqualsBuilt(ShadowSchema(),
                          std::vector<Row>(kZoneRows + 5, Row(5, Value())),
                          "", "all_null");
}

// The homes population of the equivalence gate, hostile cells included.
TEST(StoreShadowTest, HomesRowsMatchBuild) {
  ExpectMappedEqualsBuilt(FuzzSchema(), MakeHomesRows(3 * kZoneRows, 71, 0.1,
                                                      true),
                          "yearbuilt", "homes");
}

}  // namespace
}  // namespace autocat
