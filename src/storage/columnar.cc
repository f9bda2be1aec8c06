#include "storage/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace autocat {

namespace {

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Values a RankDomain holds before it first deduplicates.
constexpr size_t kRankDedupMin = 4096;

}  // namespace

ZoneEntry& ZoneAccumulator::Next() {
  if (zones_.empty() || zones_.back().row_count == kZoneRows) {
    zones_.emplace_back();
    seen_ = false;
  }
  ZoneEntry& zone = zones_.back();
  ++zone.row_count;
  return zone;
}

template <typename T>
void ZoneAccumulator::Widen(T v) {
  ZoneEntry& zone = zones_.back();
  T lo = v;
  T hi = v;
  if (seen_) {
    if constexpr (std::is_same_v<T, double>) {
      std::memcpy(&lo, &zone.min_bits, sizeof(lo));
      std::memcpy(&hi, &zone.max_bits, sizeof(hi));
    } else {
      lo = static_cast<T>(zone.min_bits);
      hi = static_cast<T>(zone.max_bits);
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if constexpr (std::is_same_v<T, double>) {
    zone.min_bits = DoubleBits(lo);
    zone.max_bits = DoubleBits(hi);
  } else {
    zone.min_bits = static_cast<uint64_t>(lo);
    zone.max_bits = static_cast<uint64_t>(hi);
  }
  seen_ = true;
}

void ZoneAccumulator::AddNull() { Next(); }

void ZoneAccumulator::AddInt64(int64_t v) {
  ++Next().valid_count;
  Widen(v);
}

void ZoneAccumulator::AddDouble(double v) {
  ZoneEntry& zone = Next();
  ++zone.valid_count;
  if (std::isnan(v)) {
    zone.has_nan = true;
    return;
  }
  Widen(v);
}

void ZoneAccumulator::AddCode(uint32_t code) {
  ++Next().valid_count;
  Widen(code);
}

std::vector<ZoneEntry> ZoneAccumulator::Finish() && {
  return std::move(zones_);
}

RankDomain::RankDomain(ValueType type, ColumnKind kind)
    : exact_(type == ValueType::kInt64 && kind == ColumnKind::kCategorical) {}

uint64_t RankDomain::Key(int64_t cell) const {
  return exact_ ? static_cast<uint64_t>(cell) ^ kSignBit
                : Key(static_cast<double>(cell));
}

uint64_t RankDomain::Key(double cell) {
  // -0.0 and 0.0 are one value. Flipping every bit of a negative double
  // and the sign bit of a positive one orders the images as the values.
  const uint64_t bits = DoubleBits(cell == 0 ? 0.0 : cell);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

void RankDomain::Add(double cell) {
  if (!std::isnan(cell)) {
    Push(Key(cell));
  }
}

uint32_t RankDomain::Code(double cell) const {
  return std::isnan(cell) ? kNoKey : Find(Key(cell));
}

void RankDomain::Push(uint64_t key) {
  keys_.push_back(key);
  // Deduplicating each time the values double keeps them within twice
  // the distinct ones, at amortized O(log) per value.
  if (keys_.size() >= 2 * std::max(distinct_, kRankDedupMin)) {
    Seal();
  }
}

void RankDomain::Seal() {
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  distinct_ = keys_.size();
}

uint32_t RankDomain::Find(uint64_t key) const {
  return static_cast<uint32_t>(
      std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
}

void ColumnarTable::DerivePostings(size_t num_rows, Column* col) {
  // Counts each code's rows into its offsets slot, then an inclusive
  // prefix sum turns slot c into the end of code c's list; walking the
  // rows backwards and pre-decrementing the slot writes each list in
  // ascending row order and leaves slot c at its start, so no second
  // cursor array is needed.
  const size_t dict_size = col->dict.size();
  col->posting_offsets.assign(dict_size + 1, 0);
  for (size_t r = 0; r < num_rows; ++r) {
    if (!col->IsNull(r)) {
      ++col->posting_offsets[col->codes[r]];
    }
  }
  uint32_t total = 0;
  for (size_t code = 0; code < dict_size; ++code) {
    total += col->posting_offsets[code];
    col->posting_offsets[code] = total;
  }
  col->posting_offsets[dict_size] = total;
  col->posting_rows.resize(total);
  for (size_t r = num_rows; r-- > 0;) {
    if (!col->IsNull(r)) {
      col->posting_rows[--col->posting_offsets[col->codes[r]]] =
          static_cast<uint32_t>(r);
    }
  }
}

Value ColumnarTable::Column::CellValue(size_t row) const {
  if (IsNull(row)) {
    return Value();
  }
  switch (type) {
    case ValueType::kInt64:
      return Value(i64[row]);
    case ValueType::kDouble:
      return Value(f64[row]);
    case ValueType::kString:
      return Value(dict[codes[row]]);
    case ValueType::kNull:
      return Value();
  }
  return Value();
}

ColumnarTable ColumnarTable::Build(const Table& table) {
  if (!table.has_rows()) {
    // A column-backed table (a selection, typically): gather its rows
    // into a builder first, so the shadow is compact. RowRef synthesizes
    // each row into its scratch, here the row's own slot. The append
    // fails only on a cell its declared column type cannot hold.
    std::vector<Row> rows(table.num_rows());
    for (size_t r = 0; r < rows.size(); ++r) {
      (void)table.RowRef(r, &rows[r]);
    }
    Table builder(table.schema());
    AUTOCAT_CHECK(builder.AppendRows(std::move(rows)).ok());
    return Build(builder);
  }
  const size_t n = table.num_rows();
  const size_t words = (n + 63) / 64;
  ColumnarTable out;
  out.num_rows_ = n;
  out.columns_.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    Column& col = out.columns_[c];
    col.type = table.schema().column(c).type;
    col.owned_null_words.assign(words, 0);
    switch (col.type) {
      case ValueType::kInt64:
        col.owned_i64.assign(n, 0);
        col.owned_codes.assign(n, kNoKey);
        break;
      case ValueType::kDouble:
        col.owned_f64.assign(n, 0);
        col.owned_codes.assign(n, kNoKey);
        break;
      case ValueType::kString:
        col.owned_codes.assign(n, 0);
        break;
      case ValueType::kNull:
        break;
    }
    col.PointAtOwned();
    // Pass 1: nulls and values — for strings the sorted distinct strings
    // (string_view order equals std::string order equals Value string
    // order), for int64/double the rank domain and the zones.
    std::map<std::string_view, uint32_t> dict_map;
    RankDomain domain(col.type, table.schema().column(c).kind);
    ZoneAccumulator zones;
    for (size_t r = 0; r < n; ++r) {
      const Value& v = table.row(r)[c];
      if (v.is_null()) {
        col.owned_null_words[r >> 6] |= uint64_t{1} << (r & 63);
        ++col.null_count;
        if (col.type != ValueType::kString) {
          zones.AddNull();
        }
        continue;
      }
      AUTOCAT_CHECK(v.type() == col.type);
      switch (col.type) {
        case ValueType::kInt64:
          col.owned_i64[r] = v.int64_value();
          zones.AddInt64(v.int64_value());
          domain.Add(v.int64_value());
          break;
        case ValueType::kDouble:
          col.owned_f64[r] = v.double_value();
          zones.AddDouble(v.double_value());
          domain.Add(v.double_value());
          break;
        case ValueType::kString:
          dict_map.emplace(v.string_value(), 0);
          break;
        case ValueType::kNull:
          break;
      }
    }
    // Pass 2: codes — dictionary codes and their zones, or rank codes.
    if (col.type == ValueType::kString) {
      col.dict.reserve(dict_map.size());
      for (auto& [sv, code] : dict_map) {
        code = static_cast<uint32_t>(col.dict.size());
        col.dict.emplace_back(sv);
      }
      for (size_t r = 0; r < n; ++r) {
        const Value& v = table.row(r)[c];
        if (v.is_null()) {
          zones.AddNull();
          continue;
        }
        const uint32_t code = dict_map.find(v.string_value())->second;
        col.owned_codes[r] = code;
        zones.AddCode(code);
      }
      DerivePostings(n, &col);
    } else if (col.type != ValueType::kNull) {
      domain.Seal();
      for (size_t r = 0; r < n; ++r) {
        if (!col.IsNull(r)) {
          col.owned_codes[r] = col.type == ValueType::kInt64
                                   ? domain.Code(col.owned_i64[r])
                                   : domain.Code(col.owned_f64[r]);
        }
      }
    }
    if (col.type != ValueType::kNull) {
      col.zones = std::move(zones).Finish();
    }
  }
  return out;
}

ColumnarTable ColumnarTable::FromColumns(size_t num_rows,
                                         std::vector<Column> columns,
                                         std::shared_ptr<const void> owner) {
  ColumnarTable out;
  out.num_rows_ = num_rows;
  out.columns_ = std::move(columns);
  out.owner_ = std::move(owner);
  return out;
}

}  // namespace autocat
