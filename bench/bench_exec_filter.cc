// Profile filtering microbenchmark: the row-at-a-time WHERE evaluator
// (ExecuteQuery) vs the compiled selection-profile kernels
// (CompileProfile -> Filter -> TableView::Create -> Materialize, the
// selection step of the serving cold path) vs the kernels with a threaded
// chunk-order merge, swept across selectivities {0.1%, 1%, 10%, 90%} of
// the synthetic ListProperty table (price-quantile range queries and
// their equivalent range profiles).
//
// The same queries also run over a price-clustered copy (rows sorted by
// price, the simgen --sort-by emission) and an explicitly shuffled copy,
// to isolate zone-map morsel pruning: clustered zones rule most morsels
// all-fail or all-pass. Each layout run reports the pruned / all-pass
// morsel fractions as counters.
//
// Flags:
//   --threads=N   restrict the parallel sweep to one thread count
//   --smoke       tiny table (4K rows) and a {1, 2} sweep, for running
//                 under sanitizers in CI (tools/ci.sh --bench-smoke)
//
// Startup cross-checks every (layout, selectivity) case on both paths
// and aborts on any divergence, so the timings below are only ever
// reported for identical results.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/random.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "simgen/geo.h"
#include "simgen/homes_generator.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"

namespace {

using namespace autocat;  // NOLINT

bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

bench::ThreadScalingReporter& Reporter() {
  static auto* reporter = new bench::ThreadScalingReporter();
  return *reporter;
}

// Row layouts under test: the generator's emission order, a price-sorted
// copy (what `simgen --sort-by price` ships to the store loader), and a
// seeded shuffle (the adversarial layout for zone maps).
enum Layout { kGenerator = 0, kClustered = 1, kShuffled = 2 };
inline constexpr const char* kLayoutTables[] = {
    "ListProperty", "ListPropertyClustered", "ListPropertyShuffled"};

struct SelectivityCase {
  std::string label;  // e.g. "sel=1%"
  // SELECT * FROM <layout table> WHERE price <= X, and its range profile.
  SelectQuery query;
  SelectionProfile profile;
  size_t matching = 0;  // rows both arms keep
  double pruned_frac = 0.0;    // morsels the zone prover ruled all-fail
  double all_pass_frac = 0.0;  // morsels it ruled all-pass
};

// The columnar arm: the case's range profile compiled against the
// table's shadow, filtered, and materialized through a zero-copy view.
Result<Table> ExecuteProfile(const SelectivityCase& c, const Database& db,
                             const ParallelOptions& parallel) {
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table,
                           db.GetTable(c.query.table_name));
  AUTOCAT_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarTable> shadow,
                           db.ColumnarFor(c.query.table_name));
  AUTOCAT_ASSIGN_OR_RETURN(
      const CompiledPredicate compiled,
      CompiledPredicate::CompileProfile(c.profile, table->schema(), shadow));
  AUTOCAT_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                           compiled.Filter(parallel));
  AUTOCAT_ASSIGN_OR_RETURN(
      const TableView view,
      TableView::Create(*table, std::move(shadow), std::move(rows), {}));
  return view.Materialize();
}

// The homes table in each layout, their shared database, and one
// pre-parsed query and its profile per (layout, selectivity). Built once,
// after flag parsing.
struct FilterFixture {
  Database db;
  size_t num_rows = 0;
  std::vector<SelectivityCase> cases[3];

  static FilterFixture& Get() {
    static FilterFixture* fixture = [] {
      auto* f = new FilterFixture();
      const Geography geo = Geography::UnitedStates();
      HomesGeneratorConfig config;
      config.num_rows = SmokeMode() ? 4000 : 120000;
      const HomesGenerator generator(&geo, config);
      auto homes = generator.Generate();
      AUTOCAT_CHECK(homes.ok());
      f->num_rows = homes.value().num_rows();
      const Schema schema = homes.value().schema();

      // Price thresholds at the target quantiles.
      size_t price_col = schema.num_columns();
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (schema.column(c).name == "price") {
          price_col = c;
        }
      }
      AUTOCAT_CHECK(price_col < schema.num_columns());
      std::vector<double> prices;
      prices.reserve(f->num_rows);
      for (size_t r = 0; r < f->num_rows; ++r) {
        prices.push_back(homes.value().ValueAt(r, price_col).AsDouble());
      }

      // Clustered and shuffled copies of the same rows.
      std::vector<Row> sorted_rows;
      std::vector<Row> shuffled_rows;
      sorted_rows.reserve(f->num_rows);
      for (size_t r = 0; r < f->num_rows; ++r) {
        sorted_rows.push_back(homes.value().row(r));
      }
      shuffled_rows = sorted_rows;
      std::vector<size_t> order(f->num_rows);
      for (size_t r = 0; r < f->num_rows; ++r) {
        order[r] = r;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&prices](size_t a, size_t b) {
                         return prices[a] < prices[b];
                       });
      for (size_t r = 0; r < f->num_rows; ++r) {
        sorted_rows[r] = homes.value().row(order[r]);
      }
      Random rng(97);
      for (size_t r = f->num_rows; r > 1; --r) {
        std::swap(shuffled_rows[r - 1],
                  shuffled_rows[static_cast<size_t>(
                      rng.Uniform(0, static_cast<int64_t>(r) - 1))]);
      }
      AUTOCAT_CHECK(f->db
                        .RegisterTable(kLayoutTables[kClustered],
                                       Table::FromValidatedRows(
                                           schema, std::move(sorted_rows)))
                        .ok());
      AUTOCAT_CHECK(
          f->db
              .RegisterTable(kLayoutTables[kShuffled],
                             Table::FromValidatedRows(
                                 schema, std::move(shuffled_rows)))
              .ok());
      AUTOCAT_CHECK(f->db
                        .RegisterTable(kLayoutTables[kGenerator],
                                       std::move(homes).value())
                        .ok());

      std::sort(prices.begin(), prices.end());
      const struct {
        const char* label;
        double quantile;
      } targets[] = {{"sel=0.1%", 0.001},
                     {"sel=1%", 0.01},
                     {"sel=10%", 0.10},
                     {"sel=90%", 0.90}};
      for (int layout = 0; layout < 3; ++layout) {
        for (const auto& target : targets) {
          const size_t rank = std::min(
              prices.size() - 1,
              static_cast<size_t>(target.quantile *
                                  static_cast<double>(prices.size())));
          // price is an int64 column: its range leaf widens each cell
          // to double and has no vector kernel, so the columnar arms
          // measure zone pruning and the scalar leaf.
          const std::string sql =
              std::string("SELECT * FROM ") + kLayoutTables[layout] +
              " WHERE price <= " +
              std::to_string(static_cast<int64_t>(prices[rank]));
          auto query = ParseQuery(sql);
          AUTOCAT_CHECK(query.ok());
          auto profile = SelectionProfile::FromQuery(query.value(), schema);
          AUTOCAT_CHECK(profile.ok());
          SelectivityCase c;
          c.label = target.label;
          c.query = std::move(query).value();
          c.profile = std::move(profile).value();
          f->cases[layout].push_back(std::move(c));
        }
      }

      // Equality gate: both paths must agree cell-for-cell before any
      // timing is trusted; the zone stats come from the same compiled
      // predicates the columnar path runs.
      ParallelOptions sequential;
      sequential.threads = 1;
      for (int layout = 0; layout < 3; ++layout) {
        auto shadow = f->db.ColumnarFor(kLayoutTables[layout]);
        AUTOCAT_CHECK(shadow.ok());
        for (SelectivityCase& c : f->cases[layout]) {
          auto by_rows = ExecuteQuery(c.query, f->db);
          auto by_cols = ExecuteProfile(c, f->db, sequential);
          AUTOCAT_CHECK(by_rows.ok() && by_cols.ok());
          AUTOCAT_CHECK(by_rows.value().num_rows() ==
                        by_cols.value().num_rows());
          for (size_t r = 0; r < by_rows.value().num_rows(); ++r) {
            for (size_t col = 0;
                 col < by_rows.value().schema().num_columns(); ++col) {
              AUTOCAT_CHECK(by_rows.value().ValueAt(r, col) ==
                            by_cols.value().ValueAt(r, col));
            }
          }
          c.matching = by_rows.value().num_rows();

          auto compiled = CompiledPredicate::CompileProfile(
              c.profile, schema, shadow.value());
          AUTOCAT_CHECK(compiled.ok());
          size_t pruned = 0;
          size_t all_pass = 0;
          const size_t morsels = compiled.value().num_morsels();
          for (size_t m = 0; m < morsels; ++m) {
            switch (compiled.value().MorselVerdict(m)) {
              case CompiledPredicate::ZoneVerdict::kAllFail:
                ++pruned;
                break;
              case CompiledPredicate::ZoneVerdict::kAllPass:
                ++all_pass;
                break;
              case CompiledPredicate::ZoneVerdict::kMixed:
                break;
            }
          }
          if (morsels > 0) {
            c.pruned_frac =
                static_cast<double>(pruned) / static_cast<double>(morsels);
            c.all_pass_frac = static_cast<double>(all_pass) /
                              static_cast<double>(morsels);
          }
        }
      }
      return f;
    }();
    return *fixture;
  }
};

// One benchmark body: execute the case end to end (filter + materialize)
// on the row or the columnar arm, reporting ms/op, selectivity, and the
// layout's zone-verdict fractions.
void BM_Filter(benchmark::State& state, const std::string& mode,
               int layout, size_t case_index, bool columnar,
               size_t threads) {
  FilterFixture& fixture = FilterFixture::Get();
  const SelectivityCase& c = fixture.cases[layout][case_index];
  ParallelOptions parallel;
  parallel.threads = threads;
  size_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto result = columnar ? ExecuteProfile(c, fixture.db, parallel)
                           : ExecuteQuery(c.query, fixture.db);
    AUTOCAT_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value());
    ++ops;
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["rows"] = static_cast<double>(fixture.num_rows);
  state.counters["selected"] = static_cast<double>(c.matching);
  state.counters["pruned_frac"] = c.pruned_frac;
  state.counters["all_pass_frac"] = c.all_pass_frac;
  state.SetLabel(c.label);
  if (ops > 0) {
    Reporter().Record(mode + " " + c.label, threads,
                      elapsed_ms / static_cast<double>(ops));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> sweep = {2, 4, 8};
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
    sweep.assign(1, size_t{2});
  }
  int filtered_argc = static_cast<int>(args.size());

  const size_t num_cases = 4;  // mirrors FilterFixture's target table
  for (size_t i = 0; i < num_cases; ++i) {
    const std::string suffix = "/case=" + std::to_string(i);
    benchmark::RegisterBenchmark(
        ("BM_FilterRow" + suffix).c_str(),
        [i](benchmark::State& state) {
          BM_Filter(state, "row", kGenerator, i, false, 1);
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_FilterColumnar" + suffix).c_str(),
        [i](benchmark::State& state) {
          BM_Filter(state, "columnar", kGenerator, i, true, 1);
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    for (const size_t threads : sweep) {
      benchmark::RegisterBenchmark(
          ("BM_FilterColumnarParallel" + suffix + "/threads=" +
           std::to_string(threads))
              .c_str(),
          [i, threads](benchmark::State& state) {
            BM_Filter(state, "columnar", kGenerator, i, true, threads);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
    // Layout sweep: zone pruning (clustered vs shuffled), single-threaded
    // so the per-morsel work is what's measured.
    const struct {
      const char* name;
      const char* mode;
      int layout;
    } layout_runs[] = {
        {"BM_FilterClustered", "clustered", kClustered},
        {"BM_FilterShuffled", "shuffled", kShuffled},
    };
    for (const auto& run : layout_runs) {
      benchmark::RegisterBenchmark(
          (run.name + suffix).c_str(),
          [i, run](benchmark::State& state) {
            BM_Filter(state, run.mode, run.layout, i, true, 1);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
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
