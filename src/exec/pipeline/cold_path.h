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
  /// column). The serve layer passes the categorizer's retained
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
  /// Always 0: the filter has no vector kernels. Mirror only: perfbench's
  /// mirror is its one reader; delete it with the mirror.
  size_t simd_morsels = 0;
  /// Rows some leaf was evaluated on: the posting candidates, or every
  /// row of the mixed morsels under the dense scan (zone-proven morsels
  /// touch none).
  size_t rows_examined = 0;
  /// `CompiledPredicate::Filter`.
  double filter_ms = 0;
  /// Wrapping the selection as the result table (`Table::Select`) and
  /// its byte count.
  double project_ms = 0;
  /// The attribute index.
  double stats_ms = 0;
};

/// Everything the cold serve path needs from the base relation. `result`
/// is the late-materialized result: the selection and projection over
/// the predicate's shared shadow (`Table::Select`), so no cell is copied;
/// its cells are bit-identical to the base rows it selects, as
/// `ExecuteQuery` returns them. Row i is selection position i. The cache
/// charges it `ApproxTableBytes(result)`: the shadow is not charged,
/// because it belongs to the `Database` while its table version is live.
struct ColdPipelineResult {
  /// The filter's output, the base rows `result` selects. Mirror only:
  /// perfbench's mirror is its one reader outside the tests; delete it
  /// with the mirror.
  std::vector<uint32_t> selection;
  Table result;
  /// `ApproxTableBytes(result)`. Mirror only: perfbench's mirror is its
  /// one reader outside the tests; delete it with the mirror.
  size_t result_bytes = 0;
  ResultAttributeIndex attr_index;
  ColdPipelineTimings timings;
};

/// Runs the cold path for one request as plain sequential steps:
/// `CompiledPredicate::Filter` (zone-pruned, posting-sourced when a
/// string value set is selective, morsel-parallel, shards merged in
/// morsel order) -> `Table::Select` over the selection ->
/// `ApproxTableBytes` -> the attribute index over the result.
/// Every step is deterministic at any thread count, so the outputs are
/// too.
///
/// `base` is a table as a `Database` holds it, and `columnar` its
/// backing, the shadow `predicate` was compiled against
/// (`predicate.columnar()`, whose ownership the result shares); it must
/// be non-null. `columns` is the projection (empty = all base columns);
/// errors are `Table::Select`'s (unknown projection column, or a base
/// whose backing is not `columnar`).
Result<ColdPipelineResult> RunColdPipeline(const CompiledPredicate& predicate,
                                           const Table& base,
                                           const ColumnarTable* columnar,
                                           const std::vector<std::string>& columns,
                                           const ColdPipelineOptions& options);

}  // namespace autocat

#endif  // AUTOCAT_EXEC_PIPELINE_COLD_PATH_H_
