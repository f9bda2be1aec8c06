// Cold-serve cost of the cold pipeline (DESIGN.md §14) at
// WHERE selectivities from ~1% to the whole table, plus the workload
// query mix. The service runs over generated ListProperty data with
// bypass_cache requests, so every iteration is a full cold execution;
// the closing table reports cold ms/op per selectivity.
//
// --smoke shrinks the environment for sanitizer CI legs (tools/ci.sh
// --bench-smoke); --threads=N is accepted for interface parity with the
// other serve benchmarks (the cold path itself is single-threaded per
// request by service policy).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/service.h"

namespace {

using namespace autocat;  // NOLINT

bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

// Mean cold ms/op per selectivity label, filled by the benchmark bodies
// and printed as a table at exit.
std::map<std::string, double>& Results() {
  static auto* results = new std::map<std::string, double>();
  return *results;
}

struct SelectivityQuery {
  std::string label;  // e.g. "sel=0.10"
  std::string sql;
};

struct PipelineFixture {
  StudyConfig config;
  std::unique_ptr<StudyEnvironment> env;
  std::unique_ptr<CategorizationService> service;
  std::vector<SelectivityQuery> queries;
  // The first 64 distinct workload queries, requested cold: the "mix"
  // row breaks a cold log-query stream's cost down operator by operator
  // (perfbench's cold_explore measures such a stream end to end).
  std::vector<std::string> mix_sqls;

  static PipelineFixture& Get() {
    static PipelineFixture* fixture = [] {
      auto* f = new PipelineFixture();
      f->config = bench::FullScaleConfig();
      if (SmokeMode()) {
        f->config.num_homes = 2000;
        f->config.num_workload_queries = 500;
      }
      auto env = StudyEnvironment::Create(f->config);
      AUTOCAT_CHECK(env.ok());
      f->env = std::make_unique<StudyEnvironment>(std::move(env).value());

      Database db;
      AUTOCAT_CHECK(db.RegisterTable("ListProperty", f->env->homes()).ok());
      ServiceOptions options;
      options.categorizer = f->config.categorizer;
      options.stats = f->config.stats;
      f->service = std::make_unique<CategorizationService>(
          std::move(db), f->env->workload(), std::move(options));

      // Price thresholds at quantiles of the generated data give WHERE
      // clauses with known survivor fractions.
      const Table& homes = f->env->homes();
      const auto price_col = homes.schema().ColumnIndex("price");
      AUTOCAT_CHECK(price_col.ok());
      std::vector<double> prices;
      prices.reserve(homes.num_rows());
      for (size_t r = 0; r < homes.num_rows(); ++r) {
        const Value& v = homes.ValueAt(r, price_col.value());
        if (!v.is_null()) {
          prices.push_back(v.AsDouble());
        }
      }
      AUTOCAT_CHECK(!prices.empty());
      std::sort(prices.begin(), prices.end());
      for (const double q : {0.01, 0.10, 0.50, 1.00}) {
        const size_t at = std::min(
            prices.size() - 1,
            static_cast<size_t>(q * static_cast<double>(prices.size())));
        char label[32];
        std::snprintf(label, sizeof(label), "sel=%.2f", q);
        f->queries.push_back(
            {label, "SELECT * FROM ListProperty WHERE price <= " +
                        std::to_string(prices[at])});
      }

      for (size_t i = 0;
           i < f->env->workload().size() && f->mix_sqls.size() < 64; ++i) {
        f->mix_sqls.push_back(f->env->workload().entry(i).sql);
      }
      AUTOCAT_CHECK(!f->mix_sqls.empty());
      return f;
    }();
    return *fixture;
  }
};

// Serves `sql_at(i)` cold for the i-th iteration and records the mean
// ms/op under `label`.
template <typename SqlAt>
void RunCold(benchmark::State& state, const std::string& label,
             const SqlAt& sql_at) {
  CategorizationService& service = *PipelineFixture::Get().service;
  size_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    ServeRequest request;
    request.sql = sql_at(ops);
    request.bypass_cache = true;
    auto response = service.Handle(request);
    AUTOCAT_CHECK(response.ok());
    benchmark::DoNotOptimize(response->payload);
    ++ops;
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  if (ops > 0) {
    Results()[label] = elapsed_ms / static_cast<double>(ops);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      SmokeMode() = true;
      continue;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      continue;  // accepted for interface parity; cold path is 1 thread
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  PipelineFixture& fixture = PipelineFixture::Get();
  for (const SelectivityQuery& query : fixture.queries) {
    benchmark::RegisterBenchmark(
        ("BM_Cold/pipeline/" + query.label).c_str(),
        [&query](benchmark::State& state) {
          RunCold(state, query.label, [&query](size_t) { return query.sql; });
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::RegisterBenchmark(
      "BM_Cold/pipeline/workload-mix",
      [&fixture](benchmark::State& state) {
        RunCold(state, "workload-mix", [&fixture](size_t i) {
          return fixture.mix_sqls[i % fixture.mix_sqls.size()];
        });
      })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\ncold serve, pipeline (ms/op):\n");
  for (const auto& [label, ms] : Results()) {
    std::printf("  %-12s %8.3f\n", label.c_str(), ms);
  }
  std::printf("pipeline %s\n", fixture.service->MetricsJson().c_str());
  return 0;
}
