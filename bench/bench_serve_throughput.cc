// Serving-layer throughput: cache-hit latency vs cold categorization, and
// end-to-end request throughput through the admission controller at
// thread counts {1, 2, 4, 8} (restrict with --threads=N, as in
// bench_fig13_execution_time). Every run reports a "threads" counter so
// --benchmark_out JSON keeps per-thread-count rows, and the closing lines
// report the hit-over-cold speedup the issue's acceptance bar asks for
// (>= 10x on the default simgen workload).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "serve/service.h"

namespace {

using namespace autocat;  // NOLINT

// --smoke: tiny environment (2K homes / 500 workload queries) and a
// {1, 2} thread sweep, for sanitizer runs in CI (tools/ci.sh
// --bench-smoke).
bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

bench::ThreadScalingReporter& Reporter() {
  static auto* reporter = new bench::ThreadScalingReporter();
  return *reporter;
}

// Mean ms/op captured by the hit and cold benchmarks for the closing
// speedup line (latest run wins; runs are sequential).
double& ColdMsPerOp() {
  static double ms = 0;
  return ms;
}
double& HitMsPerOp() {
  static double ms = 0;
  return ms;
}

// Shared fixture: the full-scale environment and a service over it, plus
// a pool of distinct replayable SQL requests. Built once.
struct ServeFixture {
  StudyConfig config;
  std::unique_ptr<StudyEnvironment> env;
  std::unique_ptr<CategorizationService> service;
  std::vector<std::string> sqls;  // Distinct workload queries.

  static ServeFixture& Get() {
    static ServeFixture* fixture = [] {
      auto* f = new ServeFixture();
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
      options.max_concurrent = 16;
      options.max_queue = 1024;
      // Size the cache for the benchmark's 64-signature working set: the
      // full-scale result tables run to tens of MB each, and the default
      // 64 MB total (8 MB per shard) evicts or rejects the biggest ones,
      // which would turn the hit benchmark into a partial-miss benchmark.
      options.cache.capacity_bytes = 512ull << 20;
      f->service = std::make_unique<CategorizationService>(
          std::move(db), f->env->workload(), std::move(options));

      for (size_t i = 0; i < f->env->workload().size() && f->sqls.size() < 64;
           ++i) {
        f->sqls.push_back(f->env->workload().entry(i).sql);
      }
      AUTOCAT_CHECK(!f->sqls.empty());
      return f;
    }();
    return *fixture;
  }
};

// Cold path: bypass_cache forces parse + canonicalize + execute +
// categorize on every request.
void BM_ServeCold(benchmark::State& state) {
  ServeFixture& fixture = ServeFixture::Get();
  size_t i = 0;
  size_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    ServeRequest request;
    request.sql = fixture.sqls[i++ % fixture.sqls.size()];
    request.bypass_cache = true;
    auto response = fixture.service->Handle(request);
    AUTOCAT_CHECK(response.ok());
    benchmark::DoNotOptimize(response->payload);
    ++ops;
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  state.counters["threads"] = 1;
  if (ops > 0) {
    ColdMsPerOp() = elapsed_ms / static_cast<double>(ops);
  }
}

// Hit path: the same request stream with the cache warmed first.
void BM_ServeHit(benchmark::State& state) {
  ServeFixture& fixture = ServeFixture::Get();
  for (const std::string& sql : fixture.sqls) {
    ServeRequest warm;
    warm.sql = sql;
    AUTOCAT_CHECK(fixture.service->Handle(warm).ok());
  }
  size_t i = 0;
  size_t ops = 0;
  size_t hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    ServeRequest request;
    request.sql = fixture.sqls[i++ % fixture.sqls.size()];
    auto response = fixture.service->Handle(request);
    AUTOCAT_CHECK(response.ok());
    benchmark::DoNotOptimize(response->payload);
    hits += response->cache_hit ? 1 : 0;
    ++ops;
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  state.counters["threads"] = 1;
  state.counters["hit_fraction"] =
      ops > 0 ? static_cast<double>(hits) / static_cast<double>(ops) : 0;
  if (ops > 0) {
    HitMsPerOp() = elapsed_ms / static_cast<double>(ops);
  }
}

// End-to-end throughput: `threads` pool threads each push one request per
// inner step through admission + cache. The stream mixes 64 warm
// signatures, so steady state is cache hits with occasional misses after
// evictions.
void BM_ServeThroughput(benchmark::State& state, size_t threads) {
  ServeFixture& fixture = ServeFixture::Get();
  ThreadPool pool(threads);
  size_t batch_base = 0;
  size_t requests = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::vector<std::future<Status>> done;
    done.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      const std::string& sql =
          fixture.sqls[(batch_base + t) % fixture.sqls.size()];
      done.push_back(pool.Submit([&fixture, &sql]() {
        ServeRequest request;
        request.sql = sql;
        return fixture.service->Handle(request).status();
      }));
    }
    for (auto& f : done) {
      AUTOCAT_CHECK(f.get().ok());
    }
    batch_base += threads;
    requests += threads;
  }
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["qps"] =
      elapsed_s > 0 ? static_cast<double>(requests) / elapsed_s : 0;
  state.SetLabel("threads=" + std::to_string(threads));
  if (requests > 0) {
    Reporter().Record("serve", threads,
                      1000.0 * elapsed_s / static_cast<double>(requests));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> sweep = {1, 2, 4, 8};
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      sweep.assign(1, static_cast<size_t>(std::stoul(argv[i] + 10)));
      continue;
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      SmokeMode() = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (SmokeMode()) {
    sweep = {1, 2};
  }
  int filtered_argc = static_cast<int>(args.size());

  benchmark::RegisterBenchmark("BM_ServeCold", BM_ServeCold)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("BM_ServeHit", BM_ServeHit)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  for (const size_t threads : sweep) {
    benchmark::RegisterBenchmark(
        ("BM_ServeThroughput/threads=" + std::to_string(threads)).c_str(),
        [threads](benchmark::State& state) {
          BM_ServeThroughput(state, threads);
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
  if (ColdMsPerOp() > 0 && HitMsPerOp() > 0) {
    std::printf("hit vs cold: %.3f ms/op vs %.3f ms/op -> %.1fx speedup\n",
                HitMsPerOp(), ColdMsPerOp(), ColdMsPerOp() / HitMsPerOp());
  }
  std::printf("%s\n", ServeFixture::Get().service->MetricsJson().c_str());
  return 0;
}
