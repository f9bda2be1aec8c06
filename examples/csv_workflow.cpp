// File-based workflow: export the dataset and query log to disk (CSV +
// SQL), then run the whole pipeline from files — the shape of a real
// deployment, where the query log comes from the DBMS profiler and the
// data from the fact table.

#include <cstdio>

#include "core/categorizer.h"
#include "core/cost_model.h"
#include "core/probability.h"
#include "exec/executor.h"
#include "simgen/study.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/csv.h"

namespace {

using namespace autocat;  // NOLINT: example brevity

int Run() {
  const std::string dir = "/tmp/autocat_example";
  const std::string data_path = dir + "_listproperty.csv";
  const std::string log_path = dir + "_workload.sql";

  // ---- Producer side: dump data + query log to files. ----------------
  {
    StudyConfig config = DefaultStudyConfig();
    config.num_homes = 15000;
    config.num_workload_queries = 4000;
    auto env = StudyEnvironment::Create(config);
    if (!env.ok()) {
      std::fprintf(stderr, "env: %s\n", env.status().ToString().c_str());
      return 1;
    }
    if (auto s = WriteCsvFile(env->homes(), data_path); !s.ok()) {
      std::fprintf(stderr, "csv: %s\n", s.ToString().c_str());
      return 1;
    }
    if (auto s = env->workload().SaveFile(log_path); !s.ok()) {
      std::fprintf(stderr, "log: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %zu homes to %s\n", env->homes().num_rows(),
                data_path.c_str());
    std::printf("Wrote %zu queries to %s\n\n", env->workload().size(),
                log_path.c_str());
  }

  // ---- Consumer side: everything below starts from the files. --------
  auto schema = HomesGenerator::ListPropertySchema();
  if (!schema.ok()) {
    return 1;
  }
  auto homes = ReadCsvFile(schema.value(), data_path);
  if (!homes.ok()) {
    std::fprintf(stderr, "read csv: %s\n",
                 homes.status().ToString().c_str());
    return 1;
  }
  WorkloadParseReport report;
  auto workload = Workload::LoadFile(log_path, schema.value(), &report);
  if (!workload.ok()) {
    std::fprintf(stderr, "read log: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  std::printf("Loaded %zu homes, %zu/%zu workload queries usable\n",
              homes->num_rows(), report.parsed, report.total);

  const StudyConfig config = DefaultStudyConfig();
  auto stats =
      WorkloadStats::Build(workload.value(), schema.value(), config.stats);
  if (!stats.ok()) {
    return 1;
  }

  // Categorize a broad search: 3-bedroom homes under 400K anywhere.
  auto sql = ParseQuery(
      "SELECT * FROM ListProperty WHERE price <= 400000 AND "
      "bedroomcount = 3");
  if (!sql.ok()) {
    return 1;
  }
  auto query = SelectionProfile::FromQuery(sql.value(), schema.value());
  if (!query.ok()) {
    return 1;
  }
  Database db;
  db.PutTable("ListProperty", std::move(homes).value());
  auto result = ExecuteQuery(sql.value(), db);
  if (!result.ok()) {
    return 1;
  }
  std::printf("Query matched %zu homes\n\n", result->num_rows());

  const CostBasedCategorizer categorizer(&stats.value(),
                                         config.categorizer);
  auto tree = categorizer.Categorize(result.value(), &query.value());
  if (!tree.ok()) {
    std::fprintf(stderr, "categorize: %s\n",
                 tree.status().ToString().c_str());
    return 1;
  }
  ProbabilityEstimator estimator(&stats.value(), &schema.value());
  const CostModel model(&estimator, config.categorizer.cost_params);
  std::printf("Category tree: %zu categories, depth %d, estimated "
              "CostAll %.0f (flat list: %zu)\n\n",
              tree->num_categories(), tree->max_depth(),
              model.CostAll(tree.value()), result->num_rows());
  std::printf("%s", tree->Render(/*max_children=*/5, /*max_depth=*/2).c_str());
  std::remove(data_path.c_str());
  std::remove(log_path.c_str());
  return 0;
}

}  // namespace

int main() { return Run(); }
