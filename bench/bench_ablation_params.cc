// Ablation: the design parameters DESIGN.md calls out — the attribute
// elimination threshold x (Section 5.1.1), the label-cost constant K
// (Equation 1), and the numeric bucket cap — plus the greedy-vs-exhaustive
// attribute-order gap.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/cost_model.h"
#include "core/enumerate.h"
#include "core/probability.h"
#include "workload/counts.h"

using namespace autocat;  // NOLINT

int main() {
  std::printf("Ablations over the cost-based categorizer's parameters\n\n");
  StudyConfig config = bench::FullScaleConfig();
  config.num_homes = 60000;  // half scale: ablations sweep many builds
  config.num_workload_queries = 10000;
  auto env = StudyEnvironment::Create(config);
  if (!env.ok()) {
    std::fprintf(stderr, "env: %s\n", env.status().ToString().c_str());
    return 1;
  }
  auto stats =
      WorkloadStats::Build(env->workload(), env->schema(), config.stats);
  if (!stats.ok()) {
    std::fprintf(stderr, "stats: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  ProbabilityEstimator estimator(&stats.value(), &env->schema());

  // The paper's "Homes" query: Seattle/Bellevue, 200K-300K.
  SelectionProfile homes_query;
  {
    auto seattle = env->geo().FindRegion("Seattle/Bellevue");
    std::set<Value> neighborhoods;
    for (const std::string& n : seattle.value()->neighborhoods) {
      neighborhoods.insert(Value(n));
    }
    homes_query.Set("neighborhood", AttributeCondition::ValueSet(
                                        std::move(neighborhoods)));
    NumericRange price;
    price.lo = 200000;
    price.hi = 300000;
    homes_query.Set("price", AttributeCondition::Range(price));
  }
  auto result = env->ExecuteProfile(homes_query);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("'Homes' query result: %zu rows\n\n", result->num_rows());

  // ---- x sweep (attribute elimination threshold) ----------------------
  std::printf("(a) attribute-elimination threshold x\n");
  std::printf("%-6s %10s %12s %12s %8s\n", "x", "retained", "CostAll(T)",
              "categories", "depth");
  for (const double x : {0.0, 0.2, 0.3, 0.4, 0.5, 0.7}) {
    CategorizerOptions options = config.categorizer;
    options.attribute_usage_threshold = x;
    const CostBasedCategorizer categorizer(&stats.value(), options);
    const size_t retained =
        categorizer.RetainedAttributes(env->schema()).size();
    auto tree = categorizer.Categorize(result.value(), &homes_query);
    if (!tree.ok()) {
      std::fprintf(stderr, "categorize: %s\n",
                   tree.status().ToString().c_str());
      return 1;
    }
    const CostModel model(&estimator, options.cost_params);
    std::printf("%-6.2f %10zu %12.1f %12zu %8d\n", x, retained,
                model.CostAll(tree.value()), tree->num_categories(),
                tree->max_depth());
  }

  // ---- K sweep (label-examination cost) --------------------------------
  std::printf("\n(b) label cost K (Equation 1)\n");
  std::printf("%-6s %12s %12s %8s\n", "K", "CostAll(T)", "categories",
              "depth");
  for (const double k : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    CategorizerOptions options = config.categorizer;
    options.cost_params.k = k;
    const CostBasedCategorizer categorizer(&stats.value(), options);
    auto tree = categorizer.Categorize(result.value(), &homes_query);
    if (!tree.ok()) {
      return 1;
    }
    CostModelParams params = options.cost_params;
    const CostModel model(&estimator, params);
    std::printf("%-6.1f %12.1f %12zu %8d\n", k, model.CostAll(tree.value()),
                tree->num_categories(), tree->max_depth());
  }

  // ---- bucket cap sweep -------------------------------------------------
  std::printf("\n(c) numeric bucket cap (max_buckets)\n");
  std::printf("%-6s %12s %12s %8s\n", "cap", "CostAll(T)", "categories",
              "depth");
  for (const size_t cap : {3u, 5u, 10u, 20u}) {
    CategorizerOptions options = config.categorizer;
    options.max_buckets = cap;
    const CostBasedCategorizer categorizer(&stats.value(), options);
    auto tree = categorizer.Categorize(result.value(), &homes_query);
    if (!tree.ok()) {
      return 1;
    }
    const CostModel model(&estimator, options.cost_params);
    std::printf("%-6zu %12.1f %12zu %8d\n", cap,
                model.CostAll(tree.value()), tree->num_categories(),
                tree->max_depth());
  }

  // ---- greedy vs exhaustive attribute order -----------------------------
  std::printf("\n(d) greedy per-level attribute choice vs exhaustive "
              "order search (500-row sample)\n");
  std::vector<uint32_t> sample;
  for (size_t i = 0; i < std::min<size_t>(500, result->num_rows()); ++i) {
    sample.push_back(static_cast<uint32_t>(i));
  }
  auto selected = Table::Select(result.value(), nullptr, std::move(sample),
                                {});
  if (!selected.ok()) {
    return 1;
  }
  const Table& small = selected.value();
  CategorizerOptions options = config.categorizer;
  const CostBasedCategorizer greedy_categorizer(&stats.value(), options);
  const std::vector<std::string> candidates =
      greedy_categorizer.RetainedAttributes(env->schema());
  auto greedy = greedy_categorizer.Categorize(small, &homes_query);
  auto exhaustive = EnumerateBestAttributeOrder(
      small, candidates, &stats.value(), options, &homes_query);
  if (!greedy.ok() || !exhaustive.ok()) {
    std::fprintf(stderr, "enumeration failed: %s\n",
                 exhaustive.ok() ? greedy.status().ToString().c_str()
                                 : exhaustive.status().ToString().c_str());
    return 1;
  }
  const CostModel model(&estimator, options.cost_params);
  const double greedy_cost = model.CostAll(greedy.value());
  std::printf("greedy CostAll = %.2f, exhaustive optimum = %.2f "
              "(gap %.2f%%)\n",
              greedy_cost, exhaustive->cost,
              100 * (greedy_cost / exhaustive->cost - 1));
  const bool ok = greedy_cost <= exhaustive->cost * 1.25;
  std::printf("\nShape check: greedy attribute selection within 25%% of "
              "the exhaustive optimum: %s\n", ok ? "HOLDS" : "DOES NOT HOLD");
  return ok ? 0 : 1;
}
