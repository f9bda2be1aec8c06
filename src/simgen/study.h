#ifndef AUTOCAT_SIMGEN_STUDY_H_
#define AUTOCAT_SIMGEN_STUDY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/categorizer.h"
#include "explore/exploration.h"
#include "simgen/geo.h"
#include "simgen/homes_generator.h"
#include "simgen/user_simulator.h"
#include "simgen/workload_generator.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "workload/counts.h"
#include "workload/workload.h"

namespace autocat {

/// End-to-end configuration of both studies of Section 6.
struct StudyConfig {
  size_t num_homes = 120000;
  size_t num_workload_queries = 20000;
  /// Simulated study: `num_subsets` disjoint subsets of `subset_size`
  /// synthetic explorations, cross-validated leave-subset-out.
  size_t num_subsets = 8;
  size_t subset_size = 100;
  uint64_t seed = 4242;
  /// Shared algorithm knobs (M = 20 as in both of the paper's studies).
  CategorizerOptions categorizer;
  /// Split-point separation intervals (paper: price 5000, squarefootage
  /// 100, yearbuilt 5; bedrooms/baths use 1).
  WorkloadStatsOptions stats;
  /// The paper's predefined attribute set for the baseline techniques.
  std::vector<std::string> predefined_attributes = {
      "neighborhood", "propertytype", "bedroomcount",
      "price",        "yearbuilt",    "squarefootage"};
  /// Threads for data/workload generation and workload preprocessing.
  /// All parallel paths are deterministic: results are identical at any
  /// thread count. Tree construction is governed separately by
  /// `categorizer.parallel`.
  ParallelOptions parallel;
};

/// The defaults described in DESIGN.md (paper parameters where given).
StudyConfig DefaultStudyConfig();

/// The shared substrate both studies run on: the synthetic ListProperty
/// table and query log, generated once, deterministically.
class StudyEnvironment {
 public:
  static Result<StudyEnvironment> Create(const StudyConfig& config);

  const StudyConfig& config() const { return config_; }
  const Geography& geo() const { return geo_; }
  const Schema& schema() const { return homes_.schema(); }
  const Table& homes() const { return homes_; }
  const Workload& workload() const { return workload_; }

  /// Rows of `homes` matching `profile` (`MatchesRow` semantics), in
  /// ascending row order: a column-backed table selecting from the homes
  /// table's shared shadow (`Table::Select`; no cell is copied), as
  /// the service's cold path returns. Selected by the compiled kernels
  /// (exec/kernels.h).
  Result<Table> ExecuteProfile(const SelectionProfile& profile) const;

 private:
  StudyEnvironment(StudyConfig config, Geography geo, Table homes,
                   Workload workload);

  StudyConfig config_;
  Geography geo_;
  // Column-backed over its shadow, built once at creation; the shadow is
  // shared, so moves of the environment and the tables selecting from it
  // leave it valid.
  Table homes_;
  Workload workload_;
};

/// Broadens workload query `w` into the user query Q_w of Section 6.2:
/// the neighborhood set expands to every neighborhood of its region and
/// all other selection conditions are removed.
Result<SelectionProfile> BroadenToRegion(const SelectionProfile& w,
                                         const Geography& geo);

/// The three techniques compared throughout Section 6.
enum class Technique {
  kCostBased,
  kAttrCost,
  kNoCost,
};
inline constexpr Technique kAllTechniques[] = {
    Technique::kCostBased, Technique::kAttrCost, Technique::kNoCost};
std::string_view TechniqueToString(Technique technique);

/// One synthetic exploration measurement (Section 6.2): a workload query W
/// explored a tree built for its broadened query Q_w.
struct SyntheticRecord {
  size_t subset = 0;
  size_t query_index = 0;  ///< Index into the environment workload.
  Technique technique = Technique::kCostBased;
  double estimated_cost = 0;  ///< CostAll(T), Equation 1.
  double actual_cost = 0;     ///< CostAll(W,T), items examined.
  size_t result_size = 0;     ///< |Result(Q_w)|.
};

struct SimulatedStudyResult {
  std::vector<SyntheticRecord> records;
  size_t skipped_empty_results = 0;
  size_t skipped_ineligible = 0;

  /// Records for one technique, optionally restricted to one subset
  /// (pass SIZE_MAX for all subsets).
  std::vector<const SyntheticRecord*> Select(Technique technique,
                                             size_t subset) const;

  /// Pearson correlation of estimated vs actual cost.
  Result<double> Pearson(Technique technique, size_t subset) const;

  /// Pearson over all techniques' explorations pooled together (the
  /// Figure 7 / Table 1 plot includes the per-technique explorations of
  /// each query), optionally restricted to one subset (SIZE_MAX = all).
  Result<double> PooledPearson(size_t subset) const;

  /// Best-fit slope of actual = b * estimated (Figure 7's trend line).
  Result<double> FitSlope(Technique technique) const;

  /// Trend-line slope over all techniques pooled.
  Result<double> PooledFitSlope() const;

  /// Mean of actual_cost / result_size (Figure 8's metric).
  double MeanFractionalCost(Technique technique, size_t subset) const;
};

/// Runs the large-scale simulated, cross-validated user study of
/// Section 6.2 over `env`.
Result<SimulatedStudyResult> RunSimulatedStudy(const StudyEnvironment& env);

/// One subject-task-technique run of the real-life study (Section 6.3).
struct UserRunRecord {
  std::string user;
  std::string task;
  Technique technique = Technique::kCostBased;
  double estimated_cost = 0;  ///< CostAll(T).
  double actual_cost_all = 0; ///< Items examined until all relevant found.
  double actual_cost_one = 0; ///< Items examined until first relevant.
  size_t relevant_found = 0;
  size_t result_size = 0;
  /// True when this run belongs to the paper's rotation design (each
  /// subject performs each task once, techniques rotated). The simulation
  /// runs the full 11 x 4 x 3 factorial for stable cell means; Table 2
  /// uses only the rotation runs, matching the paper's protocol.
  bool paper_assignment = false;
};

struct UserStudyResult {
  std::vector<UserRunRecord> records;
  std::map<std::string, size_t> task_result_sizes;

  /// All factorial runs of a task-technique cell.
  std::vector<const UserRunRecord*> Select(const std::string& task,
                                           Technique technique) const;

  /// Per-user Pearson correlation of estimated vs actual (Table 2),
  /// computed over the user's four rotation-design runs as in the paper.
  Result<double> UserPearson(const std::string& user) const;

  /// Post-study survey (Table 4): each user votes for the technique with
  /// the lowest normalized cost they experienced.
  std::map<Technique, size_t> SurveyVotes() const;
};

/// Runs the simulated version of the paper's 11-subject real-life study.
/// Unlike the human study (where each subject could perform each task only
/// once), the simulation runs the complete 11 x 4 x 3 factorial; the
/// paper's rotation assignment is marked on the records so Table 2 can be
/// computed exactly as in the paper while the per-cell figures average
/// over all 11 subjects.
Result<UserStudyResult> RunUserStudy(const StudyEnvironment& env);

/// Builds a categorizer of the given technique over `stats` with the
/// study's options (`arbitrary_seed` differentiates 'No cost' trees
/// between queries).
std::unique_ptr<Categorizer> MakeTechnique(Technique technique,
                                           const WorkloadStats* stats,
                                           const StudyConfig& config,
                                           uint64_t arbitrary_seed);

}  // namespace autocat

#endif  // AUTOCAT_SIMGEN_STUDY_H_
