#include "exec/pipeline/cold_path.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <utility>

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

// The root-level attribute index over the view's rows (see
// storage/attr_index.h): sorted non-NULL, non-NaN (value, position) pairs
// for numeric columns and ascending dictionary groups for string columns.
// Values are read exactly as the partitioners' typed fast paths read
// them, so an entry equals what a direct scan would have produced.
ResultAttributeIndex BuildAttributeIndex(
    const TableView& view, const ColumnarTable& columnar,
    const std::vector<std::string>* stats_attributes) {
  const Schema& schema = view.schema();
  const std::vector<uint32_t>& selection = view.selection();
  ResultAttributeIndex index;
  index.num_rows = selection.size();
  index.columns.assign(schema.num_columns(), {});
  // Survivor bitmap over base rows and the survivor count before each
  // word, built for the first column that rank-filters: the selection
  // ascends, so the position of base row r is its rank in the bitmap.
  std::vector<uint64_t> words;
  std::vector<size_t> word_rank;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (stats_attributes != nullptr &&
        std::find(stats_attributes->begin(), stats_attributes->end(),
                  schema.column(c).name) == stats_attributes->end()) {
      continue;  // the partitioners will never touch this column
    }
    AttributeIndexEntry& entry = index.columns[c];
    const ColumnarTable::Column& cc = columnar.column(view.base_column(c));
    if (schema.column(c).kind == ColumnKind::kNumeric) {
      // Schema::Create admits only int64/double numeric columns.
      const bool i64 = cc.type == ValueType::kInt64;
      entry.has_sorted_values = true;
      entry.sorted_values.reserve(selection.size());
      // Dense selections rank-filter the per-table sorted order (one
      // sequential walk over the base rows) instead of sorting the
      // survivors' values again. Both orders are (value asc, position
      // asc), so the output is element-identical; the 1/16 cutoff is
      // roughly where the walk and the O(k log k) sort cross over.
      if (!cc.sorted_order.empty() &&
          selection.size() * 16 >= columnar.num_rows()) {
        if (words.empty()) {
          words.assign((columnar.num_rows() + 63) / 64, 0);
          for (const uint32_t row : selection) {
            words[row >> 6] |= uint64_t{1} << (row & 63);
          }
          word_rank.resize(words.size());
          size_t running = 0;
          for (size_t w = 0; w < words.size(); ++w) {
            word_rank[w] = running;
            running += static_cast<size_t>(std::popcount(words[w]));
          }
        }
        // `sorted_order` holds no NULL or NaN row.
        for (const uint32_t row : cc.sorted_order) {
          const uint64_t word = words[row >> 6];
          if ((word >> (row & 63)) & 1) {
            const size_t pos =
                word_rank[row >> 6] +
                static_cast<size_t>(std::popcount(
                    word & ((uint64_t{1} << (row & 63)) - 1)));
            entry.sorted_values.emplace_back(
                i64 ? static_cast<double>(cc.i64[row]) : cc.f64[row], pos);
          }
        }
        continue;
      }
      for (size_t k = 0; k < selection.size(); ++k) {
        const uint32_t row = selection[k];
        if (cc.IsNull(row)) {
          continue;
        }
        const double value =
            i64 ? static_cast<double>(cc.i64[row]) : cc.f64[row];
        if (!std::isnan(value)) {
          entry.sorted_values.emplace_back(value, k);
        }
      }
      // Pairs are distinct (the position is unique) and NaN-free, so the
      // sorted vector is the unique total order — identical to sorting
      // the same pairs collected any other way.
      std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
    } else if (cc.type == ValueType::kString) {
      std::vector<std::vector<size_t>> buckets(cc.dict.size());
      std::vector<uint32_t> touched;
      // Ascending positions per bucket.
      for (size_t k = 0; k < selection.size(); ++k) {
        const uint32_t row = selection[k];
        if (cc.IsNull(row)) {
          continue;
        }
        const uint32_t code = cc.codes[row];
        if (buckets[code].empty()) {
          touched.push_back(code);
        }
        buckets[code].push_back(k);
      }
      std::sort(touched.begin(), touched.end());
      entry.has_groups = true;
      entry.groups.reserve(touched.size());
      for (const uint32_t code : touched) {
        entry.groups.emplace_back(Value(cc.dict[code]),
                                  std::move(buckets[code]));
      }
    }
  }
  return index;
}

}  // namespace

Result<ColdPipelineResult> RunColdPipeline(
    const CompiledPredicate& predicate, const Table& base,
    const ColumnarTable* columnar, const std::vector<std::string>& columns,
    const ColdPipelineOptions& options) {
  AUTOCAT_CHECK(columnar != nullptr);
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
    timings.simd_morsels += work.simd ? 1 : 0;
  }

  const double t0 = NowMs();
  AUTOCAT_ASSIGN_OR_RETURN(out.selection, predicate.Filter(options.parallel));
  const double t1 = NowMs();
  AUTOCAT_ASSIGN_OR_RETURN(
      const TableView view,
      TableView::Create(base, nullptr, out.selection, columns));
  out.result = view.Materialize();
  out.result_bytes = ApproxTableBytes(out.result);
  const double t2 = NowMs();
  out.attr_index =
      BuildAttributeIndex(view, *columnar, options.stats_attributes);
  const double t3 = NowMs();

  timings.filter_ms = t1 - t0;
  timings.project_ms = t2 - t1;
  timings.stats_ms = t3 - t2;
  return out;
}

}  // namespace autocat
