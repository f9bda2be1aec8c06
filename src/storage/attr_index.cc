#include "storage/attr_index.h"

#include <algorithm>
#include <array>

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

}  // namespace

std::vector<KeyOrderEntry> SortedKeys(const ColumnarTable::Column& column,
                                      size_t num_rows,
                                      const uint32_t* selection,
                                      const std::vector<uint32_t>* positions) {
  std::vector<uint32_t> ascending;
  if (positions != nullptr &&
      !std::is_sorted(positions->begin(), positions->end())) {
    // The radix sort keeps input order within a key: gather ascending.
    ascending = *positions;
    std::sort(ascending.begin(), ascending.end());
    positions = &ascending;
  }
  const size_t n = positions == nullptr ? num_rows : positions->size();
  std::vector<KeyOrderEntry> out;
  out.reserve(n);
  uint32_t max_key = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t pos =
        positions == nullptr ? static_cast<uint32_t>(i) : (*positions)[i];
    const uint32_t row = selection == nullptr ? pos : selection[pos];
    // NULL first: a column of the NULL type has no codes to read.
    if (column.IsNull(row)) {
      continue;
    }
    const uint32_t key = column.codes[row];
    if (key != kNoKey) {
      max_key = std::max(max_key, key);
      out.emplace_back(key, pos);
    }
  }
  SortByKey(max_key, &out);
  return out;
}

std::vector<KeyOrderEntry> SortedKeys(const Table& table, size_t col,
                                      const std::vector<uint32_t>* positions) {
  AUTOCAT_CHECK(!table.has_rows());
  return SortedKeys(
      table.columnar_backing()->column(table.backing_column(col)),
      table.num_rows(),
      table.has_selection() ? table.selection().data() : nullptr, positions);
}

}  // namespace autocat
