#include "simgen/study.h"

#include <algorithm>
#include <functional>

#include "common/random.h"
#include "common/statistics.h"
#include "core/cost_model.h"
#include "core/probability.h"
#include "exec/kernels.h"
#include "explore/metrics.h"

namespace autocat {

StudyConfig DefaultStudyConfig() {
  StudyConfig config;
  config.categorizer.max_tuples_per_category = 20;   // M, as in the paper
  config.categorizer.attribute_usage_threshold = 0.4;  // x, as in the paper
  config.categorizer.cost_params.k = 1.0;
  config.categorizer.cost_params.frac = 0.5;
  config.categorizer.equiwidth_interval_multiplier = 5.0;
  // Paper's separation intervals: price 5000, squarefootage 100,
  // yearbuilt 5; integer attributes use 1.
  config.stats.split_intervals = {
      {"price", 5000},       {"squarefootage", 100}, {"yearbuilt", 5},
      {"bedroomcount", 1},   {"bathcount", 1},
  };
  config.stats.default_split_interval = 1.0;
  return config;
}

StudyEnvironment::StudyEnvironment(StudyConfig config, Geography geo,
                                   Table homes, Workload workload)
    : config_(std::move(config)),
      geo_(std::move(geo)),
      homes_(std::move(homes)),
      workload_(std::move(workload)) {}

Result<StudyEnvironment> StudyEnvironment::Create(const StudyConfig& config) {
  Geography geo = Geography::UnitedStates();
  HomesGeneratorConfig homes_config;
  homes_config.num_rows = config.num_homes;
  homes_config.seed = config.seed * 2 + 1;
  homes_config.parallel = config.parallel;
  HomesGenerator homes_generator(&geo, homes_config);
  Table homes;
  {
    // The generated rows are freed once their shadow is built.
    AUTOCAT_ASSIGN_OR_RETURN(const Table generated,
                             homes_generator.Generate());
    homes = Table::FromColumnar(generated.schema(),
                                std::make_shared<const ColumnarTable>(
                                    ColumnarTable::Build(generated)));
  }

  WorkloadGeneratorConfig workload_config;
  workload_config.num_queries = config.num_workload_queries;
  workload_config.seed = config.seed * 3 + 7;
  workload_config.parallel = config.parallel;
  WorkloadGenerator workload_generator(&geo, workload_config);
  AUTOCAT_ASSIGN_OR_RETURN(
      Workload workload,
      workload_generator.Generate(homes.schema(), nullptr));

  return StudyEnvironment(config, std::move(geo), std::move(homes),
                          std::move(workload));
}

Result<Table> StudyEnvironment::ExecuteProfile(
    const SelectionProfile& profile) const {
  // Same selection as the cold serve path: the compiled kernels.
  AUTOCAT_ASSIGN_OR_RETURN(
      const CompiledPredicate compiled,
      CompiledPredicate::CompileProfile(profile, homes_.schema(),
                                        homes_.columnar_backing()));
  AUTOCAT_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                           compiled.Filter({.threads = 1}));
  return Table::Select(homes_, nullptr, std::move(rows), {});
}

Result<SelectionProfile> BroadenToRegion(const SelectionProfile& w,
                                         const Geography& geo) {
  const AttributeCondition* nb = w.Find("neighborhood");
  if (nb == nullptr || !nb->is_value_set() || nb->values.empty()) {
    return Status::InvalidArgument(
        "query has no neighborhood condition to broaden");
  }
  AUTOCAT_ASSIGN_OR_RETURN(
      const Region* region,
      geo.RegionOfNeighborhood(nb->values.begin()->ToString()));
  std::set<Value> all;
  for (const std::string& n : region->neighborhoods) {
    all.insert(Value(n));
  }
  SelectionProfile broadened;
  broadened.Set("neighborhood", AttributeCondition::ValueSet(std::move(all)));
  return broadened;
}

std::string_view TechniqueToString(Technique technique) {
  switch (technique) {
    case Technique::kCostBased:
      return "Cost-based";
    case Technique::kAttrCost:
      return "Attr-cost";
    case Technique::kNoCost:
      return "No cost";
  }
  return "unknown";
}

std::unique_ptr<Categorizer> MakeTechnique(Technique technique,
                                           const WorkloadStats* stats,
                                           const StudyConfig& config,
                                           uint64_t arbitrary_seed) {
  CategorizerOptions options = config.categorizer;
  options.arbitrary_seed = arbitrary_seed;
  switch (technique) {
    case Technique::kCostBased:
      // Candidates default to every column; the usage threshold x keeps
      // the paper's six retained attributes.
      options.candidate_attributes.clear();
      return std::make_unique<CostBasedCategorizer>(stats,
                                                    std::move(options));
    case Technique::kAttrCost:
      options.candidate_attributes = config.predefined_attributes;
      return std::make_unique<AttrCostCategorizer>(stats,
                                                   std::move(options));
    case Technique::kNoCost:
      options.candidate_attributes = config.predefined_attributes;
      return std::make_unique<NoCostCategorizer>(stats, std::move(options));
  }
  return nullptr;
}

std::vector<const SyntheticRecord*> SimulatedStudyResult::Select(
    Technique technique, size_t subset) const {
  std::vector<const SyntheticRecord*> out;
  for (const SyntheticRecord& record : records) {
    if (record.technique == technique &&
        (subset == SIZE_MAX || record.subset == subset)) {
      out.push_back(&record);
    }
  }
  return out;
}

Result<double> SimulatedStudyResult::Pearson(Technique technique,
                                             size_t subset) const {
  std::vector<double> estimated;
  std::vector<double> actual;
  for (const SyntheticRecord* record : Select(technique, subset)) {
    estimated.push_back(record->estimated_cost);
    actual.push_back(record->actual_cost);
  }
  return PearsonCorrelation(estimated, actual);
}

Result<double> SimulatedStudyResult::PooledPearson(size_t subset) const {
  std::vector<double> estimated;
  std::vector<double> actual;
  for (const SyntheticRecord& record : records) {
    if (subset == SIZE_MAX || record.subset == subset) {
      estimated.push_back(record.estimated_cost);
      actual.push_back(record.actual_cost);
    }
  }
  return PearsonCorrelation(estimated, actual);
}

Result<double> SimulatedStudyResult::PooledFitSlope() const {
  std::vector<double> estimated;
  std::vector<double> actual;
  for (const SyntheticRecord& record : records) {
    estimated.push_back(record.estimated_cost);
    actual.push_back(record.actual_cost);
  }
  return LeastSquaresSlopeThroughOrigin(estimated, actual);
}

Result<double> SimulatedStudyResult::FitSlope(Technique technique) const {
  std::vector<double> estimated;
  std::vector<double> actual;
  for (const SyntheticRecord* record : Select(technique, SIZE_MAX)) {
    estimated.push_back(record->estimated_cost);
    actual.push_back(record->actual_cost);
  }
  return LeastSquaresSlopeThroughOrigin(estimated, actual);
}

double SimulatedStudyResult::MeanFractionalCost(Technique technique,
                                                size_t subset) const {
  RunningStat stat;
  for (const SyntheticRecord* record : Select(technique, subset)) {
    if (record->result_size > 0) {
      stat.Add(record->actual_cost /
               static_cast<double>(record->result_size));
    }
  }
  return stat.mean();
}

Result<SimulatedStudyResult> RunSimulatedStudy(const StudyEnvironment& env) {
  const StudyConfig& config = env.config();
  SimulatedStudyResult result;

  // Eligible synthetic explorations: queries with a neighborhood condition
  // (broadening is region-based) plus at least one more condition, so the
  // exploration has something to drill on.
  std::vector<size_t> eligible;
  for (size_t i = 0; i < env.workload().size(); ++i) {
    const SelectionProfile& profile = env.workload().entry(i).profile;
    if (profile.Constrains("neighborhood") && profile.num_conditions() >= 2) {
      eligible.push_back(i);
    } else {
      ++result.skipped_ineligible;
    }
  }
  const size_t needed = config.num_subsets * config.subset_size;
  if (eligible.size() < needed) {
    return Status::InvalidArgument(
        "workload has only " + std::to_string(eligible.size()) +
        " eligible queries, need " + std::to_string(needed));
  }
  Random rng(config.seed ^ 0xABCDEF);
  rng.Shuffle(eligible);
  eligible.resize(needed);

  for (size_t subset = 0; subset < config.num_subsets; ++subset) {
    const std::vector<size_t> subset_indices(
        eligible.begin() + static_cast<long>(subset * config.subset_size),
        eligible.begin() +
            static_cast<long>((subset + 1) * config.subset_size));
    // Leave-subset-out: the count tables never see the explorations they
    // are evaluated on.
    const Workload rest = env.workload().Without(subset_indices, nullptr);
    AUTOCAT_ASSIGN_OR_RETURN(
        const WorkloadStats stats,
        WorkloadStats::Build(rest, env.schema(), config.stats,
                             config.parallel));
    ProbabilityEstimator estimator(&stats, &env.schema());
    CostModel model(&estimator, config.categorizer.cost_params);
    SimulatedExplorer::Options explorer_options;
    explorer_options.scenario = Scenario::kAll;
    explorer_options.label_cost = config.categorizer.cost_params.k;
    const SimulatedExplorer explorer(explorer_options);

    for (size_t query_index : subset_indices) {
      const SelectionProfile& w = env.workload().entry(query_index).profile;
      AUTOCAT_ASSIGN_OR_RETURN(const SelectionProfile broadened,
                               BroadenToRegion(w, env.geo()));
      AUTOCAT_ASSIGN_OR_RETURN(const Table result_set,
                               env.ExecuteProfile(broadened));
      if (result_set.empty()) {
        ++result.skipped_empty_results;
        continue;
      }
      for (Technique technique : kAllTechniques) {
        const auto categorizer = MakeTechnique(
            technique, &stats, config, config.seed ^ (query_index * 31));
        AUTOCAT_ASSIGN_OR_RETURN(
            const CategoryTree tree,
            categorizer->Categorize(result_set, &broadened));
        SyntheticRecord record;
        record.subset = subset;
        record.query_index = query_index;
        record.technique = technique;
        record.estimated_cost = model.CostAll(tree);
        record.actual_cost = explorer.Explore(tree, w).items_examined;
        record.result_size = result_set.num_rows();
        result.records.push_back(record);
      }
    }
  }
  return result;
}

std::vector<const UserRunRecord*> UserStudyResult::Select(
    const std::string& task, Technique technique) const {
  std::vector<const UserRunRecord*> out;
  for (const UserRunRecord& record : records) {
    if (record.task == task && record.technique == technique) {
      out.push_back(&record);
    }
  }
  return out;
}

Result<double> UserStudyResult::UserPearson(const std::string& user) const {
  std::vector<double> estimated;
  std::vector<double> actual;
  for (const UserRunRecord& record : records) {
    if (record.user == user && record.paper_assignment) {
      estimated.push_back(record.estimated_cost);
      actual.push_back(record.actual_cost_all);
    }
  }
  return PearsonCorrelation(estimated, actual);
}

std::map<Technique, size_t> UserStudyResult::SurveyVotes() const {
  // Each user votes for the technique that felt best across the tasks
  // they tried. A subject's judgment is implicitly task-relative ("given
  // what I was looking for, how hard did the tool make it?"), and each
  // subject met each technique on *different* tasks, so raw effort would
  // mostly measure task difficulty. We therefore score each run by its
  // combined effort — items per relevant tuple found, plus items to the
  // first hit — relative to the across-subject mean effort of its task,
  // and each user votes for their lowest-mean-relative-effort technique.
  auto combined = [](const UserRunRecord& record) {
    return record.actual_cost_all /
               static_cast<double>(
                   std::max<size_t>(1, record.relevant_found)) +
           record.actual_cost_one;
  };
  std::map<std::string, std::pair<double, size_t>> task_mean;
  for (const UserRunRecord& record : records) {
    auto& [sum, count] = task_mean[record.task];
    sum += combined(record);
    ++count;
  }
  struct Effort {
    double relative_sum = 0;
    size_t count = 0;
  };
  std::map<std::string, std::map<Technique, Effort>> per_user;
  for (const UserRunRecord& record : records) {
    const auto& [sum, count] = task_mean.at(record.task);
    const double mean = sum / static_cast<double>(count);
    Effort& effort = per_user[record.user][record.technique];
    effort.relative_sum += combined(record) / std::max(mean, 1e-9);
    ++effort.count;
  }
  std::map<Technique, size_t> votes;
  for (const auto& [user, techniques] : per_user) {
    (void)user;
    bool first = true;
    Technique best = Technique::kCostBased;
    double best_cost = 0;
    for (const auto& [technique, effort] : techniques) {
      const double mean =
          effort.relative_sum / static_cast<double>(effort.count);
      if (first || mean < best_cost) {
        first = false;
        best = technique;
        best_cost = mean;
      }
    }
    ++votes[best];
  }
  return votes;
}

Result<UserStudyResult> RunUserStudy(const StudyEnvironment& env) {
  const StudyConfig& config = env.config();
  AUTOCAT_ASSIGN_OR_RETURN(
      const WorkloadStats stats,
      WorkloadStats::Build(env.workload(), env.schema(), config.stats,
                           config.parallel));
  ProbabilityEstimator estimator(&stats, &env.schema());
  CostModel model(&estimator, config.categorizer.cost_params);

  AUTOCAT_ASSIGN_OR_RETURN(const std::vector<StudyTask> tasks,
                           PaperStudyTasks(env.geo()));
  const std::vector<Persona> personas = DefaultPersonas();

  UserStudyResult result;

  // Per task: the result set, and one tree per technique (all subjects of
  // a task-technique cell see the same tree, as in the web study).
  struct TaskMaterial {
    Table result_set;
    std::vector<CategoryTree> trees;  // indexed by technique
    std::vector<double> estimated;    // CostAll per technique
  };
  std::vector<TaskMaterial> materials;
  for (const StudyTask& task : tasks) {
    AUTOCAT_ASSIGN_OR_RETURN(Table result_set,
                             env.ExecuteProfile(task.query));
    TaskMaterial material{std::move(result_set), {}, {}};
    result.task_result_sizes[task.id] = material.result_set.num_rows();
    materials.push_back(std::move(material));
  }
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (Technique technique : kAllTechniques) {
      const auto categorizer =
          MakeTechnique(technique, &stats, config, config.seed ^ (t * 97));
      AUTOCAT_ASSIGN_OR_RETURN(
          CategoryTree tree,
          categorizer->Categorize(materials[t].result_set, &tasks[t].query));
      materials[t].estimated.push_back(model.CostAll(tree));
      materials[t].trees.push_back(std::move(tree));
    }
  }

  for (size_t u = 0; u < personas.size(); ++u) {
    const Persona& persona = personas[u];
    for (size_t t = 0; t < tasks.size(); ++t) {
      AUTOCAT_ASSIGN_OR_RETURN(
          const SelectionProfile interest,
          PersonaInterest(tasks[t], persona, env.geo()));
      for (size_t tech_index = 0; tech_index < 3; ++tech_index) {
        Random all_rng(persona.seed ^ (t * 1315423911ULL) ^
                       (tech_index * 2246822519ULL) ^ 0x1);
        SimulatedExplorer::Options all_options;
        all_options.scenario = Scenario::kAll;
        all_options.label_cost = config.categorizer.cost_params.k;
        all_options.decision_noise = persona.decision_noise;
        all_options.rng = &all_rng;
        const ExplorationResult all_run =
            SimulatedExplorer(all_options)
                .Explore(materials[t].trees[tech_index], interest);

        Random one_rng(persona.seed ^ (t * 2654435761ULL) ^
                       (tech_index * 3266489917ULL) ^ 0x2);
        SimulatedExplorer::Options one_options = all_options;
        one_options.scenario = Scenario::kOne;
        one_options.rng = &one_rng;
        const ExplorationResult one_run =
            SimulatedExplorer(one_options)
                .Explore(materials[t].trees[tech_index], interest);

        UserRunRecord record;
        record.user = persona.name;
        record.task = tasks[t].id;
        record.technique = kAllTechniques[tech_index];
        record.estimated_cost = materials[t].estimated[tech_index];
        record.actual_cost_all = all_run.items_examined;
        record.actual_cost_one = one_run.items_examined;
        record.relevant_found = all_run.relevant_found;
        record.result_size = materials[t].result_set.num_rows();
        record.paper_assignment = tech_index == (u + t) % 3;
        result.records.push_back(std::move(record));
      }
    }
  }
  return result;
}

}  // namespace autocat
