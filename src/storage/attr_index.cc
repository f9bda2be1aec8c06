#include "storage/attr_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "common/check.h"

namespace autocat {

namespace {

// Stable LSD radix sort of (key, position) pairs by key, 8 bits a pass,
// as many passes as `max_key` needs. The input is in position order, so
// the output is in (key, position) order: O(k) per pass with 256
// counters, where a comparison sort costs O(k log k).
void SortByKey(uint32_t max_key, std::vector<KeyOrderEntry>* pairs) {
  std::vector<KeyOrderEntry> scratch(pairs->size());
  for (uint32_t shift = 0; shift < 32 && (max_key >> shift) != 0;
       shift += 8) {
    std::array<size_t, 257> offsets{};
    for (const KeyOrderEntry& p : *pairs) {
      ++offsets[((p.first >> shift) & 255) + 1];
    }
    for (size_t d = 0; d < 256; ++d) {
      offsets[d + 1] += offsets[d];
    }
    for (const KeyOrderEntry& p : *pairs) {
      scratch[offsets[(p.first >> shift) & 255]++] = p;
    }
    pairs->swap(scratch);
  }
}

// Sorts (cell, position) pairs by (cell, position) and keys each by the
// dense rank of its cell among the distinct cells. Cells hold no NaN, so
// `<` is a strict weak order and the sorted vector is unique.
template <typename Cell>
std::vector<KeyOrderEntry> RankCells(
    std::vector<std::pair<Cell, uint32_t>> cells) {
  std::sort(cells.begin(), cells.end());
  std::vector<KeyOrderEntry> out;
  out.reserve(cells.size());
  uint32_t key = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0 && cells[i - 1].first < cells[i].first) {
      ++key;
    }
    out.emplace_back(key, cells[i].second);
  }
  return out;
}

}  // namespace

std::vector<KeyOrderEntry> SortedKeys(const ColumnarTable::Column& column,
                                      ColumnKind kind, size_t num_rows,
                                      const uint32_t* selection,
                                      const std::vector<uint32_t>* positions) {
  std::vector<uint32_t> ascending;
  if (!column.codes.empty() && positions != nullptr &&
      !std::is_sorted(positions->begin(), positions->end())) {
    // The radix sort keeps input order within a key: gather ascending.
    ascending = *positions;
    std::sort(ascending.begin(), ascending.end());
    positions = &ascending;
  }
  const size_t n = positions == nullptr ? num_rows : positions->size();
  const auto position_at = [positions](size_t i) -> uint32_t {
    return positions == nullptr ? static_cast<uint32_t>(i) : (*positions)[i];
  };
  const auto row_at = [selection](uint32_t pos) {
    return selection == nullptr ? pos : selection[pos];
  };
  if (!column.codes.empty()) {
    std::vector<KeyOrderEntry> out;
    out.reserve(n);
    uint32_t max_key = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t pos = position_at(i);
      const uint32_t row = row_at(pos);
      const uint32_t key = column.codes[row];
      if (!column.IsNull(row) && key != kNoKey) {
        max_key = std::max(max_key, key);
        out.emplace_back(key, pos);
      }
    }
    SortByKey(max_key, &out);
    return out;
  }
  // The (cell, position) pairs of the non-NULL, non-NaN cells, read by
  // `cell_at(row)`, ranked.
  const auto rank = [&](auto cell_at) {
    using Cell = decltype(cell_at(uint32_t{0}));
    std::vector<std::pair<Cell, uint32_t>> cells;
    cells.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t pos = position_at(i);
      const uint32_t row = row_at(pos);
      if (column.IsNull(row)) {
        continue;
      }
      const Cell cell = cell_at(row);
      if constexpr (std::is_floating_point_v<Cell>) {
        if (std::isnan(cell)) {
          continue;
        }
      }
      cells.emplace_back(cell, pos);
    }
    return RankCells(std::move(cells));
  };
  switch (column.type) {
    case ValueType::kInt64:
      if (kind == ColumnKind::kNumeric) {
        return rank([&column](uint32_t row) {
          return static_cast<double>(column.i64[row]);
        });
      }
      return rank([&column](uint32_t row) { return column.i64[row]; });
    case ValueType::kDouble:
      return rank([&column](uint32_t row) { return column.f64[row]; });
    case ValueType::kString:  // codes are empty only without rows
    case ValueType::kNull:    // every cell is NULL
      break;
  }
  return {};
}

std::vector<KeyOrderEntry> SortedKeys(const Table& table, size_t col,
                                      const std::vector<uint32_t>* positions) {
  AUTOCAT_CHECK(!table.has_rows());
  return SortedKeys(
      table.columnar_backing()->column(table.backing_column(col)),
      table.schema().column(col).kind, table.num_rows(),
      table.has_selection() ? table.selection().data() : nullptr, positions);
}

}  // namespace autocat
