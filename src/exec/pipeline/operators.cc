#include "exec/pipeline/operator.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace autocat {

// ---- SelectionSink ---------------------------------------------------

void SelectionSink::Open(const PipelineInput& input) {
  shards_.assign(input.num_morsels, {});
  selection_.clear();
}

void SelectionSink::Push(const Morsel& morsel, const uint32_t* survivors,
                         size_t count) {
  shards_[morsel.index].assign(survivors, survivors + count);
}

Status SelectionSink::Finish(const std::vector<size_t>& morsel_offsets) {
  (void)morsel_offsets;  // used by debug-build invariant checks only
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.size();
  }
  selection_.reserve(total);
  for (size_t m = 0; m < shards_.size(); ++m) {
    AUTOCAT_DCHECK_EQ(selection_.size(), morsel_offsets[m]);
    selection_.insert(selection_.end(), shards_[m].begin(),
                      shards_[m].end());
  }
  shards_.clear();
  return Status::OK();
}

// ---- ProjectSink -----------------------------------------------------

namespace {

size_t ValueBytes(const Value& v) {
  // Must match serve/cache.cc's ApproxValueBytes: the cache accounts the
  // stored copy, and the rows gathered here *are* the stored copies.
  size_t bytes = sizeof(Value);
  if (v.is_string()) {
    bytes += v.string_value().capacity();
  }
  return bytes;
}

size_t RowBytes(const Row& row) {
  size_t bytes = sizeof(Row);
  for (const Value& v : row) {
    bytes += ValueBytes(v);
  }
  return bytes;
}

}  // namespace

void ProjectSink::Open(const PipelineInput& input) {
  input_ = &input;
  shards_.assign(input.num_morsels, {});
  shard_bytes_.assign(input.num_morsels, 0);
  identity_ = input.base->has_rows() &&
              input.projection->size() == input.base->num_columns();
  if (identity_) {
    for (size_t c = 0; c < input.projection->size(); ++c) {
      if ((*input.projection)[c] != c) {
        identity_ = false;
        break;
      }
    }
  }
}

void ProjectSink::Push(const Morsel& morsel, const uint32_t* survivors,
                       size_t count) {
  std::vector<Row>& rows = shards_[morsel.index];
  rows.reserve(count);
  size_t bytes = 0;
  const Table& base = *input_->base;
  const std::vector<size_t>& projection = *input_->projection;
  if (identity_) {
    // Whole-row copies, as Materialize's identity fast path takes them.
    for (size_t k = 0; k < count; ++k) {
      rows.push_back(base.row(survivors[k]));
      bytes += RowBytes(rows.back());
    }
  } else if (!base.has_rows()) {
    // Column-backed base: synthesize each projected cell.
    for (size_t k = 0; k < count; ++k) {
      Row projected;
      projected.reserve(projection.size());
      for (const size_t c : projection) {
        projected.push_back(base.CellValue(survivors[k], c));
      }
      bytes += RowBytes(projected);
      rows.push_back(std::move(projected));
    }
  } else {
    for (size_t k = 0; k < count; ++k) {
      const Row& src = base.row(survivors[k]);
      Row projected;
      projected.reserve(projection.size());
      for (const size_t c : projection) {
        projected.push_back(src[c]);
      }
      bytes += RowBytes(projected);
      rows.push_back(std::move(projected));
    }
  }
  shard_bytes_[morsel.index] = bytes;
}

Status ProjectSink::Finish(const std::vector<size_t>& morsel_offsets) {
  (void)morsel_offsets;  // used by debug-build invariant checks only
  size_t total = 0;
  result_bytes_ = sizeof(Table);
  for (size_t m = 0; m < shards_.size(); ++m) {
    total += shards_[m].size();
    result_bytes_ += shard_bytes_[m];
  }
  std::vector<Row> rows;
  rows.reserve(total);
  for (size_t m = 0; m < shards_.size(); ++m) {
    AUTOCAT_DCHECK_EQ(rows.size(), morsel_offsets[m]);
    for (Row& row : shards_[m]) {
      rows.push_back(std::move(row));
    }
  }
  result_ = Table::FromValidatedRows(*input_->schema, std::move(rows));
  shards_.clear();
  shard_bytes_.clear();
  return Status::OK();
}

// ---- StatsAccumulateSink ---------------------------------------------

void StatsAccumulateSink::Open(const PipelineInput& input) {
  input_ = &input;
  const Schema& schema = *input.schema;
  const size_t cols = schema.num_columns();
  modes_.assign(cols, Mode::kSkip);
  index_.num_rows = 0;
  index_.columns.assign(cols, {});
  bool any = false;
  for (size_t c = 0; c < cols; ++c) {
    if (input.stats_attributes != nullptr &&
        std::find(input.stats_attributes->begin(),
                  input.stats_attributes->end(),
                  schema.column(c).name) == input.stats_attributes->end()) {
      continue;  // the partitioners will never touch this column
    }
    const ValueType type =
        input.columnar->column((*input.projection)[c]).type;
    if (schema.column(c).kind == ColumnKind::kNumeric) {
      // Schema::Create admits only int64/double numeric columns.
      modes_[c] = type == ValueType::kInt64 ? Mode::kNumericI64
                                            : Mode::kNumericF64;
      any = true;
    } else if (type == ValueType::kString) {
      modes_[c] = Mode::kStringDict;
      any = true;
    }
  }
  survivor_words_.assign(
      any ? (input.base->num_rows() + 63) / 64 : 0, 0);
}

void StatsAccumulateSink::Push(const Morsel& morsel,
                               const uint32_t* survivors, size_t count) {
  if (survivor_words_.empty()) {
    return;  // no column wanted an entry
  }
  // Morsel bounds are multiples of kMorselRows (a multiple of 64), so
  // concurrent Pushes write disjoint words and plain ORs cannot race.
  if (count == morsel.num_rows()) {
    // Zone-proven all-pass morsel: every row survives, so fill whole
    // words instead of setting 2048 bits one at a time. The last word may
    // be partial when the morsel is the table's tail.
    size_t r = morsel.begin;
    for (; r + 64 <= morsel.end; r += 64) {
      survivor_words_[r >> 6] = ~uint64_t{0};
    }
    if (r < morsel.end) {
      survivor_words_[r >> 6] |=
          (uint64_t{1} << (morsel.end - r)) - 1;
    }
    return;
  }
  for (size_t k = 0; k < count; ++k) {
    const uint32_t row = survivors[k];
    survivor_words_[row >> 6] |= uint64_t{1} << (row & 63);
  }
}

Status StatsAccumulateSink::Finish(
    const std::vector<size_t>& morsel_offsets) {
  index_.num_rows = morsel_offsets.empty()
                        ? 0
                        : morsel_offsets.back();
  if (survivor_words_.empty()) {
    return Status::OK();  // no column wanted an entry
  }
  // Survivor rows ascend globally (morsel m covers rows before morsel
  // m+1's), so ascending bitmap order is the morsel-merge order and a
  // row's ordinal below is its result-row index.
  std::vector<uint32_t> rows;
  rows.reserve(index_.num_rows);
  for (size_t w = 0; w < survivor_words_.size(); ++w) {
    uint64_t word = survivor_words_[w];
    while (word != 0) {
      rows.push_back(static_cast<uint32_t>(
          (w << 6) + static_cast<size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
  AUTOCAT_DCHECK_EQ(rows.size(), index_.num_rows);
  // Prefix survivor counts per bitmap word, computed on first use: the
  // selection position of base row r is its rank in the bitmap.
  std::vector<size_t> word_rank;
  for (size_t c = 0; c < modes_.size(); ++c) {
    AttributeIndexEntry& entry = index_.columns[c];
    const ColumnarTable::Column& cc =
        input_->columnar->column((*input_->projection)[c]);
    switch (modes_[c]) {
      case Mode::kSkip:
        break;
      case Mode::kNumericI64:
      case Mode::kNumericF64: {
        // Dense selections rank-filter the per-table sorted order — one
        // sequential walk over the base rows — instead of sorting the
        // survivors' values again. Both orders are (value asc, position
        // asc), so the output is element-identical; the 1/16 cutoff is
        // roughly where the walk and the O(k log k) sort cross over.
        if (!cc.sorted_order.empty() &&
            index_.num_rows * 16 >= input_->base->num_rows()) {
          if (word_rank.empty()) {
            word_rank.resize(survivor_words_.size());
            size_t running = 0;
            for (size_t w = 0; w < survivor_words_.size(); ++w) {
              word_rank[w] = running;
              running += static_cast<size_t>(
                  std::popcount(survivor_words_[w]));
            }
          }
          entry.sorted_values.reserve(index_.num_rows);
          for (const uint32_t row : cc.sorted_order) {
            const uint64_t word = survivor_words_[row >> 6];
            if ((word >> (row & 63)) & 1) {
              const double value = modes_[c] == Mode::kNumericI64
                                       ? static_cast<double>(cc.i64[row])
                                       : cc.f64[row];
              const size_t pos =
                  word_rank[row >> 6] +
                  static_cast<size_t>(std::popcount(
                      word & ((uint64_t{1} << (row & 63)) - 1)));
              entry.sorted_values.emplace_back(value, pos);
            }
          }
          entry.has_sorted_values = true;
          break;
        }
        entry.sorted_values.reserve(rows.size());
        for (size_t k = 0; k < rows.size(); ++k) {
          const uint32_t row = rows[k];
          if (!cc.IsNull(row)) {
            entry.sorted_values.emplace_back(
                modes_[c] == Mode::kNumericI64
                    ? static_cast<double>(cc.i64[row])
                    : cc.f64[row],
                k);
          }
        }
        // Pairs are distinct (the position is unique), so the sorted
        // vector is the unique total order — identical to sorting the
        // same pairs collected any other way.
        std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
        entry.has_sorted_values = true;
        break;
      }
      case Mode::kStringDict: {
        std::vector<std::vector<size_t>> buckets(cc.dict.size());
        std::vector<uint32_t> touched;
        // Ascending rows = ascending result-row indices per bucket.
        for (size_t k = 0; k < rows.size(); ++k) {
          const uint32_t row = rows[k];
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
        entry.groups.reserve(touched.size());
        for (const uint32_t code : touched) {
          entry.groups.emplace_back(Value(cc.dict[code]),
                                    std::move(buckets[code]));
        }
        entry.has_groups = true;
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace autocat
