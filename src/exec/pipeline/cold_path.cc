#include "exec/pipeline/cold_path.h"

#include <algorithm>
#include <array>
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

// Stable LSD radix sort of (code, position) pairs by code, 8 bits a pass,
// as many passes as the dictionary's largest code needs. The input is in
// position order, so the output is in (code, position) order: O(k) per
// pass with 256 counters, where a comparison sort costs O(k log k).
void SortByCode(size_t dict_size,
                std::vector<std::pair<uint32_t, uint32_t>>* pairs) {
  std::vector<std::pair<uint32_t, uint32_t>> scratch(pairs->size());
  for (uint64_t shift = 0; shift < 32 && (uint64_t{1} << shift) < dict_size;
       shift += 8) {
    std::array<size_t, 257> offsets{};
    for (const auto& p : *pairs) {
      ++offsets[((p.first >> shift) & 255) + 1];
    }
    for (size_t d = 0; d < 256; ++d) {
      offsets[d + 1] += offsets[d];
    }
    for (const auto& p : *pairs) {
      scratch[offsets[(p.first >> shift) & 255]++] = p;
    }
    pairs->swap(scratch);
  }
}

// The attribute index over the view's rows (see storage/attr_index.h):
// sorted non-NULL, non-NaN (value, position) pairs for numeric columns
// and (dictionary code, position) pairs sorted by code for string
// columns. Values
// are read exactly as the partitioners' typed fast paths read them, so an
// entry equals the order a direct scan and sort would have produced.
ResultAttributeIndex BuildAttributeIndex(
    const TableView& view, const ColumnarTable& columnar,
    const std::vector<std::string>* stats_attributes) {
  const Schema& schema = view.schema();
  const std::vector<uint32_t>& selection = view.selection();
  ResultAttributeIndex index;
  index.num_rows = selection.size();
  index.columns.assign(schema.num_columns(), {});
  // Dense selections rank-filter a numeric column's per-table
  // `sorted_order` in one sequential walk over the base rows instead of
  // sorting the survivors again. Both orders are (value asc, position
  // asc), so the output is element-identical; the 1/16 cutoff is roughly
  // where the walk and the O(k log k) sort cross over.
  const bool dense = selection.size() * 16 >= columnar.num_rows();
  // Survivor bitmap over base rows and the survivor count before each
  // word, built for the first column that rank-filters: the selection
  // ascends, so the position of base row r is its rank in the bitmap.
  std::vector<uint64_t> words;
  std::vector<size_t> word_rank;
  const auto position_of = [&](uint32_t row, size_t* pos) {
    if (words.empty()) {
      words.assign((columnar.num_rows() + 63) / 64, 0);
      for (const uint32_t r : selection) {
        words[r >> 6] |= uint64_t{1} << (r & 63);
      }
      word_rank.resize(words.size());
      size_t running = 0;
      for (size_t w = 0; w < words.size(); ++w) {
        word_rank[w] = running;
        running += static_cast<size_t>(std::popcount(words[w]));
      }
    }
    const uint64_t word = words[row >> 6];
    if (((word >> (row & 63)) & 1) == 0) {
      return false;
    }
    *pos = word_rank[row >> 6] +
           static_cast<size_t>(
               std::popcount(word & ((uint64_t{1} << (row & 63)) - 1)));
    return true;
  };
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (stats_attributes != nullptr &&
        std::find(stats_attributes->begin(), stats_attributes->end(),
                  schema.column(c).name) == stats_attributes->end()) {
      continue;  // the partitioners will never touch this column
    }
    AttributeIndexEntry& entry = index.columns[c];
    const ColumnarTable::Column& cc = columnar.column(view.base_column(c));
    size_t pos = 0;
    if (schema.column(c).kind == ColumnKind::kNumeric) {
      // Schema::Create admits only int64/double numeric columns.
      const bool i64 = cc.type == ValueType::kInt64;
      entry.has_sorted_values = true;
      std::vector<std::pair<double, size_t>>& out = entry.sorted_values;
      out.reserve(selection.size());
      if (dense && !cc.sorted_order.empty()) {
        // `sorted_order` holds no NULL or NaN row.
        for (const uint32_t row : cc.sorted_order) {
          if (position_of(row, &pos)) {
            out.emplace_back(
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
          out.emplace_back(value, k);
        }
      }
      // Pairs are distinct (the position is unique) and NaN-free, so the
      // sorted vector is the unique total order — identical to sorting
      // the same pairs collected any other way.
      std::sort(out.begin(), out.end());
    } else if (cc.type == ValueType::kString) {
      entry.has_sorted_codes = true;
      std::vector<std::pair<uint32_t, uint32_t>>& out = entry.sorted_codes;
      out.reserve(selection.size());
      for (size_t k = 0; k < selection.size(); ++k) {
        const uint32_t row = selection[k];
        if (!cc.IsNull(row)) {
          out.emplace_back(cc.codes[row], static_cast<uint32_t>(k));
        }
      }
      SortByCode(cc.dict.size(), &out);
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
