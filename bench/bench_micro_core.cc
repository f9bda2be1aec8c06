// Micro-benchmarks of the core building blocks: workload preprocessing,
// probability lookups, partitioners, cost-model evaluation, and full tree
// construction at several result sizes.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "core/cost_model.h"
#include "core/partition.h"
#include "core/probability.h"
#include "exec/kernels.h"
#include "storage/columnar.h"
#include "workload/counts.h"

namespace {

using namespace autocat;  // NOLINT

struct MicroFixture {
  StudyConfig config;
  std::unique_ptr<StudyEnvironment> env;
  std::unique_ptr<WorkloadStats> stats;
  Table result;  // a large region-broadened result set
  SelectionProfile query;

  static MicroFixture& Get() {
    static MicroFixture* fixture = [] {
      auto* f = new MicroFixture();
      f->config = bench::FullScaleConfig();
      auto env = StudyEnvironment::Create(f->config);
      AUTOCAT_CHECK(env.ok());
      f->env = std::make_unique<StudyEnvironment>(std::move(env).value());
      auto stats = WorkloadStats::Build(f->env->workload(),
                                        f->env->schema(), f->config.stats);
      AUTOCAT_CHECK(stats.ok());
      f->stats = std::make_unique<WorkloadStats>(std::move(stats).value());
      auto seattle = f->env->geo().FindRegion("Seattle/Bellevue");
      AUTOCAT_CHECK(seattle.ok());
      std::set<Value> neighborhoods;
      for (const std::string& n : seattle.value()->neighborhoods) {
        neighborhoods.insert(Value(n));
      }
      f->query.Set("neighborhood", AttributeCondition::ValueSet(
                                       std::move(neighborhoods)));
      auto result = f->env->ExecuteProfile(f->query);
      AUTOCAT_CHECK(result.ok());
      f->result = std::move(result).value();
      return f;
    }();
    return *fixture;
  }
};

void BM_WorkloadStatsBuild(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  for (auto _ : state) {
    auto stats = WorkloadStats::Build(fixture.env->workload(),
                                      fixture.env->schema(),
                                      fixture.config.stats);
    AUTOCAT_CHECK(stats.ok());
    benchmark::DoNotOptimize(stats->num_queries());
  }
  state.counters["queries"] =
      static_cast<double>(fixture.env->workload().size());
}
BENCHMARK(BM_WorkloadStatsBuild)->Unit(benchmark::kMillisecond);

void BM_OverlapCount(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  double lo = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.stats->CountConditionsOverlappingInterval(
            "price", lo, lo + 50000));
    lo += 5000;
    if (lo > 900000) {
      lo = 100000;
    }
  }
}
BENCHMARK(BM_OverlapCount);

void BM_OccurrenceCount(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  const Value bellevue("Bellevue");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.stats->OccurrenceCount("neighborhood", bellevue));
  }
}
BENCHMARK(BM_OccurrenceCount);

void BM_PartitionCategorical(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  std::vector<size_t> all(fixture.result.num_rows());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  const TableView view = TableView::All(fixture.result, nullptr);
  for (auto _ : state) {
    auto parts = PartitionCategorical(view, all, "neighborhood",
                                      *fixture.stats);
    AUTOCAT_CHECK(parts.ok());
    benchmark::DoNotOptimize(parts->size());
  }
  state.counters["rows"] = static_cast<double>(all.size());
}
BENCHMARK(BM_PartitionCategorical)->Unit(benchmark::kMillisecond);

void BM_PartitionNumeric(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  std::vector<size_t> all(fixture.result.num_rows());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  NumericPartitionOptions options;
  const TableView view = TableView::All(fixture.result, nullptr);
  for (auto _ : state) {
    auto parts = PartitionNumeric(view, all, "price",
                                  *fixture.stats, options, nullptr);
    AUTOCAT_CHECK(parts.ok());
    benchmark::DoNotOptimize(parts->size());
  }
  state.counters["rows"] = static_cast<double>(all.size());
}
BENCHMARK(BM_PartitionNumeric)->Unit(benchmark::kMillisecond);

void BM_CostModelEvaluation(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  const CostBasedCategorizer categorizer(fixture.stats.get(),
                                         fixture.config.categorizer);
  auto tree = categorizer.Categorize(fixture.result, &fixture.query);
  AUTOCAT_CHECK(tree.ok());
  ProbabilityEstimator estimator(fixture.stats.get(),
                                 &fixture.result.schema());
  const CostModel model(&estimator, fixture.config.categorizer.cost_params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.CostAll(tree.value()));
  }
  state.counters["nodes"] = static_cast<double>(tree->num_nodes());
}
BENCHMARK(BM_CostModelEvaluation)->Unit(benchmark::kMillisecond);

void BM_SelectFullScan(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  const Table& homes = fixture.env->homes();
  for (auto _ : state) {
    const auto rows = homes.FilterIndices([&](const Row& row) {
      return fixture.query.MatchesRow(row, homes.schema());
    });
    benchmark::DoNotOptimize(rows.size());
  }
  state.counters["table_rows"] = static_cast<double>(homes.num_rows());
}
BENCHMARK(BM_SelectFullScan)->Unit(benchmark::kMillisecond);

void BM_SelectCompiled(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  const Table& homes = fixture.env->homes();
  for (auto _ : state) {
    auto compiled = CompiledPredicate::CompileProfile(
        fixture.query, homes.schema(), homes.columnar_backing());
    AUTOCAT_CHECK(compiled.ok());
    const auto rows = compiled->Filter({.threads = 1});
    AUTOCAT_CHECK(rows.ok());
    benchmark::DoNotOptimize(rows->size());
  }
  state.counters["table_rows"] = static_cast<double>(homes.num_rows());
}
BENCHMARK(BM_SelectCompiled)->Unit(benchmark::kMillisecond);

void BM_CategorizeBySize(benchmark::State& state) {
  MicroFixture& fixture = MicroFixture::Get();
  const size_t rows =
      std::min<size_t>(static_cast<size_t>(state.range(0)),
                       fixture.result.num_rows());
  std::vector<size_t> subset(rows);
  for (size_t i = 0; i < rows; ++i) {
    subset[i] = i;
  }
  auto result = fixture.result.SelectRows(subset);
  AUTOCAT_CHECK(result.ok());
  const CostBasedCategorizer categorizer(fixture.stats.get(),
                                         fixture.config.categorizer);
  for (auto _ : state) {
    auto tree = categorizer.Categorize(result.value(), &fixture.query);
    AUTOCAT_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree->num_nodes());
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_CategorizeBySize)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
