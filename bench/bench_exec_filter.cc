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
// A candidate-source sweep (BM_CandidateSource) times compile + Filter
// of `neighborhood IN (...) AND price <= <median>` on the generator
// layout with the IN list's posting union at n/64 .. n/2 rows, once with
// the posting union as the candidate source and once with the dense
// scan (forced through CompiledPredicate::ForceCandidateSourceForTest).
// Where the two cross is what CompiledPredicate::kPostingCutoffDivisor
// is chosen against.
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
#include <iterator>
#include <memory>
#include <set>
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

// One point of the candidate-source sweep: a neighborhood value set whose
// posting union holds about num_rows / divisor rows, ANDed with a price
// range that keeps about half of them.
struct SourceCase {
  std::string label;  // e.g. "union=n/8"
  SelectionProfile profile;
  size_t candidates = 0;  // rows in the value set's posting union
  size_t matching = 0;    // rows both sources keep
};
inline constexpr size_t kUnionDivisors[] = {64, 32, 16, 8, 4, 2};

// Compiles `profile` under the given candidate-source rule and filters.
std::vector<uint32_t> FilterWithSource(
    const SelectionProfile& profile, const Schema& schema,
    const std::shared_ptr<const ColumnarTable>& shadow,
    CompiledPredicate::CandidateSource source) {
  CompiledPredicate::ForceCandidateSourceForTest(source);
  auto compiled = CompiledPredicate::CompileProfile(profile, schema, shadow);
  CompiledPredicate::ForceCandidateSourceForTest(
      CompiledPredicate::CandidateSource::kCutoff);
  AUTOCAT_CHECK(compiled.ok());
  AUTOCAT_CHECK(compiled.value().uses_postings() ==
                (source == CompiledPredicate::CandidateSource::kPostings));
  ParallelOptions sequential;
  sequential.threads = 1;
  auto rows = compiled.value().Filter(sequential);
  AUTOCAT_CHECK(rows.ok());
  return std::move(rows).value();
}

// The homes table in each layout, their shared database, and one
// pre-parsed query and its profile per (layout, selectivity), plus the
// candidate-source sweep's profiles. Built once, after flag parsing.
struct FilterFixture {
  Database db;
  size_t num_rows = 0;
  std::vector<SelectivityCase> cases[3];
  std::vector<SourceCase> source_cases;

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
      f->BuildSourceCases(schema, prices[prices.size() / 2]);
      return f;
    }();
    return *fixture;
  }

  // Adds neighborhoods in a seeded order until their posting lists hold
  // num_rows / divisor rows, for each divisor, and checks that both
  // candidate sources select the same rows.
  void BuildSourceCases(const Schema& schema, double median_price) {
    auto shadow = db.ColumnarFor(kLayoutTables[kGenerator]);
    AUTOCAT_CHECK(shadow.ok());
    const auto col = schema.ColumnIndex("neighborhood");
    AUTOCAT_CHECK(col.ok());
    const ColumnarTable::Column& hood = shadow.value()->column(col.value());
    std::vector<uint32_t> order(hood.dict.size());
    for (size_t c = 0; c < order.size(); ++c) {
      order[c] = static_cast<uint32_t>(c);
    }
    Random rng(53);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.Uniform(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    NumericRange price;
    price.hi = median_price;
    for (const size_t divisor : kUnionDivisors) {
      SourceCase c;
      c.label = "union=n/" + std::to_string(divisor);
      std::set<Value> names;
      for (const uint32_t code : order) {
        if (c.candidates * divisor >= num_rows) {
          break;
        }
        names.insert(Value(hood.dict[code]));
        c.candidates +=
            hood.posting_offsets[code + 1] - hood.posting_offsets[code];
      }
      c.profile.Set("neighborhood",
                    AttributeCondition::ValueSet(std::move(names)));
      c.profile.Set("price", AttributeCondition::Range(price));
      const std::vector<uint32_t> posted = FilterWithSource(
          c.profile, schema, shadow.value(),
          CompiledPredicate::CandidateSource::kPostings);
      AUTOCAT_CHECK(posted ==
                    FilterWithSource(c.profile, schema, shadow.value(),
                                     CompiledPredicate::CandidateSource::kDense));
      c.matching = posted.size();
      source_cases.push_back(std::move(c));
    }
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

// One candidate-source body: compile (which builds the posting bitmap)
// plus a sequential Filter, the part of the cold path the source changes.
void BM_CandidateSource(benchmark::State& state, size_t case_index,
                        CompiledPredicate::CandidateSource source) {
  FilterFixture& fixture = FilterFixture::Get();
  const SourceCase& c = fixture.source_cases[case_index];
  auto table = fixture.db.GetTable(kLayoutTables[kGenerator]);
  auto shadow = fixture.db.ColumnarFor(kLayoutTables[kGenerator]);
  AUTOCAT_CHECK(table.ok() && shadow.ok());
  const Schema& schema = table.value()->schema();
  ParallelOptions sequential;
  sequential.threads = 1;
  CompiledPredicate::ForceCandidateSourceForTest(source);
  for (auto _ : state) {
    auto compiled =
        CompiledPredicate::CompileProfile(c.profile, schema, shadow.value());
    AUTOCAT_CHECK(compiled.ok());
    auto rows = compiled.value().Filter(sequential);
    AUTOCAT_CHECK(rows.ok());
    benchmark::DoNotOptimize(rows.value());
  }
  CompiledPredicate::ForceCandidateSourceForTest(
      CompiledPredicate::CandidateSource::kCutoff);
  state.counters["rows"] = static_cast<double>(fixture.num_rows);
  state.counters["candidates"] = static_cast<double>(c.candidates);
  state.counters["selected"] = static_cast<double>(c.matching);
  state.SetLabel(c.label);
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

  for (size_t i = 0; i < std::size(kUnionDivisors); ++i) {
    const std::string suffix =
        "/union=n/" + std::to_string(kUnionDivisors[i]);
    benchmark::RegisterBenchmark(
        ("BM_CandidateSource" + suffix + "/postings").c_str(),
        [i](benchmark::State& state) {
          BM_CandidateSource(state, i,
                             CompiledPredicate::CandidateSource::kPostings);
        })
        ->Unit(benchmark::kMicrosecond)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_CandidateSource" + suffix + "/dense").c_str(),
        [i](benchmark::State& state) {
          BM_CandidateSource(state, i,
                             CompiledPredicate::CandidateSource::kDense);
        })
        ->Unit(benchmark::kMicrosecond)
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
