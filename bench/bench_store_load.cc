// Segment-store bulk-load and map-start timing (DESIGN.md section 13,
// EXPERIMENTS.md "Bulk load and map-start"):
//
//   BM_BulkLoadStore   streaming generate -> StoreWriter -> on-disk store
//                      (rows/s, file bytes, spilled runs)
//   BM_BuildShadow     ColumnarTable::Build of the generated homes table,
//                      the in-memory twin of the writer's encoding
//   BM_MapStart        SegmentStore open + attach into a Database, with
//                      the regenerate-from-scratch time of the same table
//                      as a counter — speedup_vs_regen is the ">= 50x"
//                      acceptance number
//   BM_AppendRowsBulk  Table::Reserve + AppendRows (the bulk path the
//   BM_AppendRowPerRow loader uses) against the per-row append it
//                      replaced, on identical row sets
//
// --smoke shrinks every row count so the ASan/TSan legs finish quickly
// (tools/ci.sh --store runs the suite; the benchmark itself is for the
// Release numbers quoted in EXPERIMENTS.md).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/executor.h"
#include "simgen/geo.h"
#include "simgen/homes_generator.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "store/store.h"
#include "store/writer.h"

namespace {

using namespace autocat;  // NOLINT

namespace fs = std::filesystem;

bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

size_t LoadRows() { return SmokeMode() ? 20000 : 1000000; }
size_t AppendRows() { return SmokeMode() ? 20000 : 250000; }
size_t ShadowRows() { return SmokeMode() ? 20000 : 120000; }

std::string ScratchStorePath() {
  return (fs::temp_directory_path() /
          ("autocat_bench_store_" + std::to_string(::getpid()) + ".store"))
      .string();
}

HomesGenerator MakeGenerator(size_t rows) {
  static const Geography geo = Geography::UnitedStates();
  HomesGeneratorConfig config;
  config.num_rows = rows;
  config.seed = 20040613;
  return HomesGenerator(&geo, config);
}

// Streams `rows` generated rows into a fresh store file at `path`,
// returning the writer stats. The caller owns cleanup.
StoreWriter::Stats BuildStore(const std::string& path, size_t rows) {
  const HomesGenerator generator = MakeGenerator(rows);
  const Result<Schema> schema = HomesGenerator::ListPropertySchema();
  AUTOCAT_CHECK(schema.ok());
  auto writer_or = StoreWriter::Create(path, StoreWriterOptions{});
  AUTOCAT_CHECK(writer_or.ok());
  StoreWriter& writer = *writer_or.value();
  AUTOCAT_CHECK(writer.BeginTable("ListProperty", schema.value()).ok());
  const Status streamed =
      generator.StreamRows([&writer](std::vector<Row> chunk) -> Status {
        for (Row& row : chunk) {
          AUTOCAT_RETURN_IF_ERROR(writer.Append(std::move(row)));
        }
        return Status::OK();
      });
  AUTOCAT_CHECK(streamed.ok());
  AUTOCAT_CHECK(writer.FinishTable().ok());
  AUTOCAT_CHECK(writer.Finish().ok());
  return writer.stats();
}

void BM_BulkLoadStore(benchmark::State& state) {
  const std::string path = ScratchStorePath();
  const size_t rows = LoadRows();
  uint64_t file_bytes = 0;
  uint64_t spilled_runs = 0;
  for (auto _ : state) {
    fs::remove(path);
    const StoreWriter::Stats stats = BuildStore(path, rows);
    file_bytes = stats.file_bytes;
    spilled_runs = stats.spilled_runs;
  }
  fs::remove(path);
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["file_bytes"] = static_cast<double>(file_bytes);
  state.counters["spilled_runs"] = static_cast<double>(spilled_runs);
  state.counters["bytes_per_row"] =
      rows > 0 ? static_cast<double>(file_bytes) / static_cast<double>(rows)
               : 0;
}
BENCHMARK(BM_BulkLoadStore)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BuildShadow(benchmark::State& state) {
  Result<Table> homes = MakeGenerator(ShadowRows()).Generate();
  AUTOCAT_CHECK(homes.ok());
  const Table& table = homes.value();
  for (auto _ : state) {
    const ColumnarTable shadow = ColumnarTable::Build(table);
    benchmark::DoNotOptimize(shadow.num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(table.num_rows()) *
                          state.iterations());
  state.counters["rows"] = static_cast<double>(table.num_rows());
}
BENCHMARK(BM_BuildShadow)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MapStart(benchmark::State& state) {
  const std::string path = ScratchStorePath();
  const size_t rows = LoadRows();
  (void)BuildStore(path, rows);
  // The number the store exists to beat: regenerating the same table in
  // memory at service start. Timed once, outside the loop.
  const auto regen_start = std::chrono::steady_clock::now();
  {
    const HomesGenerator generator = MakeGenerator(rows);
    Result<Table> homes = generator.Generate();
    AUTOCAT_CHECK(homes.ok());
    Database db;
    AUTOCAT_CHECK(
        db.RegisterTable("ListProperty", std::move(homes.value())).ok());
  }
  const double regen_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - regen_start)
                             .count();
  double map_s_total = 0;
  for (auto _ : state) {
    Database db;
    const auto map_start = std::chrono::steady_clock::now();
    const Status attached = AttachStoreTables(path, &db);
    map_s_total += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - map_start)
                       .count();
    AUTOCAT_CHECK(attached.ok());
    AUTOCAT_CHECK(db.HasTable("ListProperty"));
  }
  fs::remove(path);
  const double map_s =
      state.iterations() > 0
          ? map_s_total / static_cast<double>(state.iterations())
          : 0;
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["map_ms"] = map_s * 1e3;
  state.counters["regen_ms"] = regen_s * 1e3;
  state.counters["speedup_vs_regen"] = map_s > 0 ? regen_s / map_s : 0;
}
BENCHMARK(BM_MapStart)->Unit(benchmark::kMillisecond)->UseRealTime();

std::vector<Row> GenerateRows(size_t n) {
  const HomesGenerator generator = MakeGenerator(n);
  std::vector<Row> rows;
  rows.reserve(n);
  const Status streamed =
      generator.StreamRows([&rows](std::vector<Row> chunk) -> Status {
        for (Row& row : chunk) {
          rows.push_back(std::move(row));
        }
        return Status::OK();
      });
  AUTOCAT_CHECK(streamed.ok());
  return rows;
}

void BM_AppendRowsBulk(benchmark::State& state) {
  const std::vector<Row> rows = GenerateRows(AppendRows());
  const Result<Schema> schema = HomesGenerator::ListPropertySchema();
  AUTOCAT_CHECK(schema.ok());
  for (auto _ : state) {
    Table table(schema.value());
    table.Reserve(rows.size());
    std::vector<Row> copy = rows;
    AUTOCAT_CHECK(table.AppendRows(std::move(copy)).ok());
    benchmark::DoNotOptimize(table.num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows.size()) *
                          state.iterations());
}
BENCHMARK(BM_AppendRowsBulk)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_AppendRowPerRow(benchmark::State& state) {
  const std::vector<Row> rows = GenerateRows(AppendRows());
  const Result<Schema> schema = HomesGenerator::ListPropertySchema();
  AUTOCAT_CHECK(schema.ok());
  for (auto _ : state) {
    Table table(schema.value());
    for (const Row& row : rows) {
      Row copy = row;
      AUTOCAT_CHECK(table.AppendRow(std::move(copy)).ok());
    }
    benchmark::DoNotOptimize(table.num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows.size()) *
                          state.iterations());
}
BENCHMARK(BM_AppendRowPerRow)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      SmokeMode() = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
