// autocat command-line tool: categorize the result of an SQL query over a
// CSV table, guided by an SQL query-log file.
//
// Usage:
//   autocat_cli --data listing.csv --schema "name:type:kind,..."
//               --workload log.sql --query "SELECT * FROM t WHERE ..."
//               [--output tree|json|sql] [--max-tuples 20] [--threshold 0.4]
//               [--technique cost|attr|nocost] [--rank] [--node N]
//
// Schema entries: <column>:<string|int64|double>:<categorical|numeric>.
// With --output sql and --node N, prints the drill-down SELECT for node N.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "autocat.h"
#include "common/string_util.h"

namespace {

using namespace autocat;  // NOLINT: binary-local

struct CliOptions {
  std::string data_path;
  std::string schema_spec;
  std::string workload_path;
  std::string query;
  std::string output = "tree";
  std::string technique = "cost";
  size_t max_tuples = 20;
  double threshold = 0.4;
  double split_interval = 1000;
  bool rank = false;
  int node = -1;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --data FILE.csv --schema SPEC --workload FILE.sql \\\n"
      "          --query SQL [--output tree|json|sql] [--node N]\\\n"
      "          [--technique cost|attr|nocost] [--max-tuples M]\\\n"
      "          [--threshold X] [--interval I] [--rank]\n"
      "  SPEC: comma-separated <column>:<string|int64|double>:"
      "<categorical|numeric>\n",
      argv0);
  return 2;
}

// Parses the value of numeric flag `flag` into `options`: the whole value
// must be a number, doubles finite, --threshold in [0, 1] and --node a
// non-negative int.
Status ParseNumericFlag(const std::string& flag, const std::string& value,
                        CliOptions* options) {
  if (flag == "--max-tuples") {
    AUTOCAT_ASSIGN_OR_RETURN(const uint64_t max_tuples, ParseUint64(value));
    options->max_tuples = static_cast<size_t>(max_tuples);
  } else if (flag == "--node") {
    AUTOCAT_ASSIGN_OR_RETURN(const int64_t node, ParseInt64(value));
    if (node < 0 || node > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("node id out of range: '" + value + "'");
    }
    options->node = static_cast<int>(node);
  } else {
    AUTOCAT_ASSIGN_OR_RETURN(const double number, ParseDouble(value));
    if (!std::isfinite(number)) {
      return Status::InvalidArgument("must be finite: '" + value + "'");
    }
    if (flag == "--threshold") {
      if (number < 0 || number > 1) {
        return Status::InvalidArgument("must be in [0, 1]: '" + value + "'");
      }
      options->threshold = number;
    } else {
      options->split_interval = number;
    }
  }
  return Status::OK();
}

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<ColumnDef> columns;
  for (const std::string& entry : Split(spec, ',')) {
    const std::vector<std::string> parts =
        Split(std::string(TrimWhitespace(entry)), ':');
    if (parts.size() != 3) {
      return Status::InvalidArgument("bad schema entry '" + entry +
                                     "' (want name:type:kind)");
    }
    ValueType type;
    if (EqualsIgnoreCase(parts[1], "string")) {
      type = ValueType::kString;
    } else if (EqualsIgnoreCase(parts[1], "int64")) {
      type = ValueType::kInt64;
    } else if (EqualsIgnoreCase(parts[1], "double")) {
      type = ValueType::kDouble;
    } else {
      return Status::InvalidArgument("unknown type '" + parts[1] + "'");
    }
    ColumnKind kind;
    if (EqualsIgnoreCase(parts[2], "categorical")) {
      kind = ColumnKind::kCategorical;
    } else if (EqualsIgnoreCase(parts[2], "numeric")) {
      kind = ColumnKind::kNumeric;
    } else {
      return Status::InvalidArgument("unknown kind '" + parts[2] + "'");
    }
    columns.emplace_back(parts[0], type, kind);
  }
  return Schema::Create(std::move(columns));
}

Result<int> RunCli(const CliOptions& options) {
  AUTOCAT_ASSIGN_OR_RETURN(const Schema schema,
                           ParseSchemaSpec(options.schema_spec));
  AUTOCAT_ASSIGN_OR_RETURN(Table data,
                           ReadCsvFile(schema, options.data_path));
  WorkloadParseReport report;
  AUTOCAT_ASSIGN_OR_RETURN(
      const Workload workload,
      Workload::LoadFile(options.workload_path, schema, &report));
  std::fprintf(stderr, "loaded %zu rows, %zu/%zu workload queries usable\n",
               data.num_rows(), report.parsed, report.total);

  WorkloadStatsOptions stats_options;
  stats_options.default_split_interval = options.split_interval;
  AUTOCAT_ASSIGN_OR_RETURN(
      const WorkloadStats stats,
      WorkloadStats::Build(workload, schema, stats_options));

  AUTOCAT_ASSIGN_OR_RETURN(const SelectQuery query,
                           ParseQuery(options.query));
  AUTOCAT_ASSIGN_OR_RETURN(const SelectionProfile profile,
                           SelectionProfile::FromQuery(query, schema));
  Database db;
  db.PutTable(query.table_name, std::move(data));
  AUTOCAT_ASSIGN_OR_RETURN(const Table result, ExecuteQuery(query, db));
  std::fprintf(stderr, "query returned %zu rows\n", result.num_rows());

  CategorizerOptions categorizer_options;
  categorizer_options.max_tuples_per_category = options.max_tuples;
  categorizer_options.attribute_usage_threshold = options.threshold;
  std::unique_ptr<Categorizer> categorizer;
  if (options.technique == "cost") {
    categorizer = std::make_unique<CostBasedCategorizer>(
        &stats, categorizer_options);
  } else if (options.technique == "attr") {
    categorizer =
        std::make_unique<AttrCostCategorizer>(&stats, categorizer_options);
  } else if (options.technique == "nocost") {
    categorizer =
        std::make_unique<NoCostCategorizer>(&stats, categorizer_options);
  } else {
    return Status::InvalidArgument("unknown technique '" +
                                   options.technique + "'");
  }
  AUTOCAT_ASSIGN_OR_RETURN(CategoryTree tree,
                           categorizer->Categorize(result, &profile));
  if (options.rank) {
    AUTOCAT_RETURN_IF_ERROR(ApplyLeafRanking(tree, {}, stats));
  }

  ProbabilityEstimator estimator(&stats, &result.schema());
  const CostModel model(&estimator, categorizer_options.cost_params);
  std::fprintf(stderr,
               "tree: %zu categories, depth %d, estimated CostAll %.1f\n",
               tree.num_categories(), tree.max_depth(), model.CostAll(tree));

  if (options.output == "tree") {
    std::printf("%s", tree.Render().c_str());
  } else if (options.output == "json") {
    std::printf("%s\n", TreeToJson(tree).c_str());
  } else if (options.output == "sql") {
    if (options.node < 0 ||
        options.node >= static_cast<int>(tree.num_nodes())) {
      return Status::InvalidArgument(
          "--output sql requires --node in [0, " +
          std::to_string(tree.num_nodes()) + ")");
    }
    AUTOCAT_ASSIGN_OR_RETURN(
        const std::string sql,
        DrillDownSql(tree, options.node, query.table_name,
                     query.where ? query.where->ToSql() : ""));
    std::printf("%s\n", sql.c_str());
  } else {
    return Status::InvalidArgument("unknown output mode '" +
                                   options.output + "'");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  std::map<std::string, std::string*> string_flags = {
      {"--data", &options.data_path},
      {"--schema", &options.schema_spec},
      {"--workload", &options.workload_path},
      {"--query", &options.query},
      {"--output", &options.output},
      {"--technique", &options.technique},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--rank") {
      options.rank = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const std::string value = argv[++i];
    if (const auto it = string_flags.find(flag); it != string_flags.end()) {
      *it->second = value;
    } else if (flag == "--max-tuples" || flag == "--threshold" ||
               flag == "--interval" || flag == "--node") {
      const Status status = ParseNumericFlag(flag, value, &options);
      if (!status.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", flag.c_str(),
                     status.message().c_str());
        return 2;
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.data_path.empty() || options.schema_spec.empty() ||
      options.workload_path.empty() || options.query.empty()) {
    return Usage(argv[0]);
  }
  const auto result = RunCli(options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  return result.value();
}
