// Figure 13: execution time of the cost-based categorization algorithm
// for M in {10, 20, 50, 100}, averaged over workload queries (the paper
// used 100 queries with average result size ~2000 and measured ~1 s on
// 2004 hardware). One iteration categorizes all 100 results; the
// reported ms/op and the thread-scaling table are per categorization.
//
// On top of the paper's M sweep, every benchmark runs at thread counts
// {1, 2, 4, 8} (restrict with --threads=N). Each registered benchmark
// name carries its thread count and every run reports a "threads"
// counter, so --benchmark_out JSON keeps per-thread-count timings; a
// closing table reports the speedup of each configuration over its own
// threads=1 run.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/counts.h"

namespace {

using namespace autocat;  // NOLINT

bench::ThreadScalingReporter& Reporter() {
  static auto* reporter = new bench::ThreadScalingReporter();
  return *reporter;
}

// Shared fixture: environment, count tables, a pool of broadened queries
// with their result sets, and the raw SQL log (for the preprocessing
// benchmark), built once.
struct Fig13Fixture {
  StudyConfig config;
  std::unique_ptr<StudyEnvironment> env;
  std::unique_ptr<WorkloadStats> stats;
  std::vector<SelectionProfile> queries;
  std::vector<Table> results;
  std::vector<std::string> sqls;

  static Fig13Fixture& Get() {
    static Fig13Fixture* fixture = [] {
      auto* f = new Fig13Fixture();
      f->config = bench::FullScaleConfig();
      auto env = StudyEnvironment::Create(f->config);
      AUTOCAT_CHECK(env.ok());
      f->env = std::make_unique<StudyEnvironment>(std::move(env).value());
      auto stats = WorkloadStats::Build(f->env->workload(),
                                        f->env->schema(), f->config.stats);
      AUTOCAT_CHECK(stats.ok());
      f->stats = std::make_unique<WorkloadStats>(std::move(stats).value());
      // The raw query log, regenerated with the environment's workload
      // seed (StudyEnvironment keeps only the parsed form).
      WorkloadGeneratorConfig workload_config;
      workload_config.num_queries = f->config.num_workload_queries;
      workload_config.seed = f->config.seed * 3 + 7;
      f->sqls =
          WorkloadGenerator(&f->env->geo(), workload_config).GenerateSql();
      // 100 broadened workload queries, as in the paper's timing run.
      size_t taken = 0;
      for (size_t i = 0; i < f->env->workload().size() && taken < 100;
           ++i) {
        const SelectionProfile& w = f->env->workload().entry(i).profile;
        if (!w.Constrains("neighborhood")) {
          continue;
        }
        auto broadened = BroadenToRegion(w, f->env->geo());
        if (!broadened.ok()) {
          continue;
        }
        auto result = f->env->ExecuteProfile(broadened.value());
        AUTOCAT_CHECK(result.ok());
        if (result->empty()) {
          continue;
        }
        f->queries.push_back(std::move(broadened).value());
        f->results.push_back(std::move(result).value());
        ++taken;
      }
      return f;
    }();
    return *fixture;
  }
};

void BM_CostBasedCategorization(benchmark::State& state, size_t m,
                                size_t threads) {
  Fig13Fixture& fixture = Fig13Fixture::Get();
  CategorizerOptions options = fixture.config.categorizer;
  options.max_tuples_per_category = m;
  options.parallel.threads = threads;
  const CostBasedCategorizer categorizer(fixture.stats.get(), options);

  // Every iteration categorizes the whole fixed set of results, so the
  // query mix (and avg_result_rows) is the same at every M, thread count
  // and iteration count.
  double total_rows = 0;
  size_t trees = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (size_t i = 0; i < fixture.results.size(); ++i) {
      auto tree = categorizer.Categorize(fixture.results[i],
                                         &fixture.queries[i]);
      AUTOCAT_CHECK(tree.ok());
      benchmark::DoNotOptimize(tree->num_nodes());
      total_rows += static_cast<double>(fixture.results[i].num_rows());
      ++trees;
    }
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["avg_result_rows"] =
      trees > 0 ? total_rows / static_cast<double>(trees) : 0;
  state.SetLabel("M=" + std::to_string(m) +
                 " threads=" + std::to_string(threads));
  if (trees > 0) {
    Reporter().Record("categorize/M=" + std::to_string(m), threads,
                      elapsed_ms / static_cast<double>(trees));
  }
}

void BM_WorkloadPreprocess(benchmark::State& state, size_t threads) {
  Fig13Fixture& fixture = Fig13Fixture::Get();
  ParallelOptions parallel;
  parallel.threads = threads;
  size_t iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    WorkloadParseReport report;
    Workload workload = Workload::Parse(fixture.sqls, fixture.env->schema(),
                                        &report, parallel);
    auto stats = WorkloadStats::Build(workload, fixture.env->schema(),
                                      fixture.config.stats, parallel);
    AUTOCAT_CHECK(stats.ok());
    benchmark::DoNotOptimize(stats.value());
    ++iterations;
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  state.counters["threads"] = static_cast<double>(threads);
  state.SetLabel("queries=" + std::to_string(fixture.sqls.size()) +
                 " threads=" + std::to_string(threads));
  if (iterations > 0) {
    Reporter().Record("preprocess", threads,
                      elapsed_ms / static_cast<double>(iterations));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --threads=N restricts the sweep to a single thread count; every other
  // argument falls through to the benchmark library.
  std::vector<size_t> sweep = {1, 2, 4, 8};
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      sweep.assign(1, static_cast<size_t>(std::stoul(argv[i] + 10)));
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  // The paper's Figure 13 sweep (M = 10, 20, 50, 100) crossed with the
  // thread sweep; UseRealTime because the win is wall-clock, not
  // main-thread CPU.
  for (const size_t m : {size_t{10}, size_t{20}, size_t{50}, size_t{100}}) {
    for (const size_t threads : sweep) {
      benchmark::RegisterBenchmark(
          ("BM_CostBasedCategorization/M=" + std::to_string(m) +
           "/threads=" + std::to_string(threads))
              .c_str(),
          [m, threads](benchmark::State& state) {
            BM_CostBasedCategorization(state, m, threads);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  for (const size_t threads : sweep) {
    benchmark::RegisterBenchmark(
        ("BM_WorkloadPreprocess/threads=" + std::to_string(threads))
            .c_str(),
        [threads](benchmark::State& state) {
          BM_WorkloadPreprocess(state, threads);
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  Reporter().Print();
  return 0;
}
