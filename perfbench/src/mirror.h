// A replay of the service's serve path through the library's public
// functions, in the order CategorizationService::AttemptServe calls them.
// The traced run times each call as a span; the output check uses the
// same replay (untraced, cache off) as the reference every response is
// compared against.
#ifndef AUTOCAT_PERFBENCH_SRC_MIRROR_H_
#define AUTOCAT_PERFBENCH_SRC_MIRROR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/result.h"
#include "core/categorizer.h"
#include "exec/executor.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "workload/counts.h"
#include "workload/workload.h"

namespace perfbench {

/// Work counters of the cold executions a replay ran.
struct ColdCounters {
  size_t cold = 0;
  double filter_ms = 0;
  double gather_ms = 0;
  double attr_index_ms = 0;
  uint64_t morsels = 0;
  uint64_t morsels_pruned = 0;
  uint64_t morsels_all_pass = 0;
  uint64_t morsels_simd = 0;
  uint64_t rows_examined = 0;  ///< Rows of every morsel not pruned.
  uint64_t rows_out = 0;
  uint64_t tree_nodes = 0;
  size_t stats_builds = 0;
  size_t columnar_builds = 0;
  /// Duration of the first Database::ColumnarFor call after each table
  /// load (a shadow build for row tables, a pointer copy for mapped ones).
  std::vector<double> columnar_first_ms;
};

struct Served {
  std::shared_ptr<const autocat::CachedCategorization> payload;
  bool hit = false;
  uint64_t key_hash = 0;
};

class Mirror {
 public:
  /// `log` is not owned and must outlive the mirror. `tracer` may be null.
  Mirror(const autocat::Workload* log, const autocat::ServiceOptions& options,
         Tracer* tracer);

  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  /// Installs a table version the way PutTable does: drops the stats and
  /// the columnar shadow and invalidates the cache.
  void SetTable(autocat::Table table);

  /// Builds the stats and the columnar shadow now, after which Serve with
  /// `use_cache` false and null `counters` is read-only and may run on
  /// several threads at once.
  autocat::Status Prepare();

  /// Serves `sql`: parse, canonicalize, cache probe, and on a miss the
  /// cold path (stats, columnar shadow, kernel compile, pipeline,
  /// categorize) and the cache insert. Fails when the kernels refuse the
  /// query: the benchmark's workloads are chosen to stay on the compiled
  /// path.
  autocat::Result<Served> Serve(const std::string& sql, int64_t request,
                                bool use_cache, ColdCounters* counters);

  const autocat::SignatureCache& cache() const { return cache_; }

 private:
  const autocat::Workload* log_;
  autocat::WorkloadStatsOptions stats_options_;
  autocat::SignatureOptions signature_;
  autocat::CategorizerOptions categorizer_options_;
  Tracer* tracer_;
  autocat::Database db_;
  std::shared_ptr<const autocat::WorkloadStats> stats_;
  bool shadow_fresh_ = true;
  autocat::SignatureCache cache_;
};

}  // namespace perfbench

#endif  // AUTOCAT_PERFBENCH_SRC_MIRROR_H_
