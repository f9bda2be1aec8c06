#include "exec/pipeline/cold_path.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "storage/columnar.h"
#include "storage/schema.h"

namespace autocat {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The attribute index over the result's rows (see storage/attr_index.h):
// the sorted keys of every column the partitioners may read.
ResultAttributeIndex BuildAttributeIndex(
    const Table& result, const std::vector<std::string>* stats_attributes) {
  const Schema& schema = result.schema();
  ResultAttributeIndex index;
  index.num_rows = result.num_rows();
  index.columns.assign(schema.num_columns(), {});
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (stats_attributes != nullptr &&
        std::find(stats_attributes->begin(), stats_attributes->end(),
                  schema.column(c).name) == stats_attributes->end()) {
      continue;  // the partitioners will never touch this column
    }
    AttributeIndexEntry& entry = index.columns[c];
    entry.has_sorted_keys = true;
    entry.sorted_keys = SortedKeys(result, c, nullptr);
  }
  return index;
}

}  // namespace

Result<ColdPipelineResult> RunColdPipeline(
    const CompiledPredicate& predicate, const Table& base,
    const ColumnarTable* columnar, const std::vector<std::string>& columns,
    const ColdPipelineOptions& options) {
  AUTOCAT_CHECK(columnar != nullptr);
  AUTOCAT_CHECK(columnar == predicate.columnar().get());
  ColdPipelineResult out;
  ColdPipelineTimings& timings = out.timings;

  // Zone verdicts: Filter skips all-fail morsels and appends all-pass
  // ones densely; only the mixed remainder evaluates rows.
  timings.morsels = predicate.num_morsels();
  for (size_t m = 0; m < timings.morsels; ++m) {
    const CompiledPredicate::MorselWork work = predicate.PlanMorsel(m);
    switch (work.verdict) {
      case CompiledPredicate::ZoneVerdict::kAllFail:
        ++timings.morsels_pruned;
        break;
      case CompiledPredicate::ZoneVerdict::kAllPass:
        ++timings.morsels_all_pass;
        break;
      case CompiledPredicate::ZoneVerdict::kMixed:
        break;
    }
    timings.rows_examined += work.rows_examined;
  }

  const double t0 = NowMs();
  AUTOCAT_ASSIGN_OR_RETURN(out.selection, predicate.Filter(options.parallel));
  const double t1 = NowMs();
  AUTOCAT_ASSIGN_OR_RETURN(
      out.result,
      Table::Select(base, predicate.columnar(), out.selection, columns));
  out.result_bytes = ApproxTableBytes(out.result);
  const double t2 = NowMs();
  out.attr_index = BuildAttributeIndex(out.result, options.stats_attributes);
  const double t3 = NowMs();

  timings.filter_ms = t1 - t0;
  timings.project_ms = t2 - t1;
  timings.stats_ms = t3 - t2;
  return out;
}

}  // namespace autocat
