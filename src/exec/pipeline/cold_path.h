#ifndef AUTOCAT_EXEC_PIPELINE_COLD_PATH_H_
#define AUTOCAT_EXEC_PIPELINE_COLD_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/kernels.h"
#include "storage/attr_index.h"
#include "storage/table.h"

namespace autocat {

struct ColdPipelineOptions {
  /// Threads for the filter's morsel scheduler (output is identical at
  /// any count).
  ParallelOptions parallel;
  /// Result columns the attribute index covers, by name (null = every
  /// supported column). The serve layer passes the categorizer's retained
  /// candidate attributes, so no entry is built for a column the
  /// partitioners will never touch. Borrowed; must outlive the call.
  const std::vector<std::string>* stats_attributes = nullptr;
};

/// Wall time of each cold-path step and the zone prover's morsel counts
/// — the serving layer exports these as the per-operator metrics
/// histograms and the zone-pruning counters.
struct ColdPipelineTimings {
  size_t morsels = 0;
  /// Morsels the zone prover ruled all-fail: no cell touched.
  size_t morsels_pruned = 0;
  /// Morsels the zone prover ruled all-pass: dense survivors, no per-row
  /// evaluation.
  size_t morsels_all_pass = 0;
  /// Mixed morsels whose first leaf's mask a SIMD kernel filled (zero
  /// under a posting source, when that leaf has no vector kernel, or when
  /// AVX2 is unavailable).
  size_t simd_morsels = 0;
  /// Rows some leaf was evaluated on: the posting candidates, or every
  /// row of the mixed morsels under the dense scan (zone-proven morsels
  /// touch none).
  size_t rows_examined = 0;
  /// `CompiledPredicate::Filter`.
  double filter_ms = 0;
  /// The projected gather (`TableView::Materialize`) and its byte count.
  double project_ms = 0;
  /// The attribute index.
  double stats_ms = 0;
};

/// Everything the cold serve path needs from the base relation. `result`
/// row i is selection position i, exactly as `TableView::Materialize`
/// over `selection` produces it, and `result_bytes` is
/// `ApproxTableBytes(result)`, the cache's accounting of it.
struct ColdPipelineResult {
  std::vector<uint32_t> selection;
  Table result;
  size_t result_bytes = 0;
  ResultAttributeIndex attr_index;
  ColdPipelineTimings timings;
};

/// Runs the cold path for one request as plain sequential steps:
/// `CompiledPredicate::Filter` (zone-pruned, posting-sourced when a
/// string value set is selective, morsel-parallel, shards merged in
/// morsel order) -> `TableView::Create` + `Materialize` over the
/// selection -> `ApproxTableBytes` -> the attribute index over the
/// selection. Every step is deterministic at any thread count, so the
/// outputs are too.
///
/// `columnar` is the base table's shadow and must be non-null. `columns`
/// is the projection (empty = all base columns); errors mirror
/// `TableView::Create` (unknown projection column).
Result<ColdPipelineResult> RunColdPipeline(const CompiledPredicate& predicate,
                                           const Table& base,
                                           const ColumnarTable* columnar,
                                           const std::vector<std::string>& columns,
                                           const ColdPipelineOptions& options);

}  // namespace autocat

#endif  // AUTOCAT_EXEC_PIPELINE_COLD_PATH_H_
