#include "storage/columnar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace autocat {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Rank keys a ColumnEncoder holds before it first deduplicates.
constexpr size_t kRankDedupMin = 4096;

// The order-preserving image of a non-NaN double. -0.0 and 0.0 are one
// value. Flipping every bit of a negative double and the sign bit of a
// positive one orders the images as the values.
uint64_t DoubleKey(double cell) {
  const auto bits = std::bit_cast<uint64_t>(cell == 0 ? 0.0 : cell);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

// The order-preserving image of a non-NULL, non-NaN int64/double cell's
// value; `exact` ranks an int64 cell as itself, not as a double.
uint64_t RankKey(const Value& cell, bool exact) {
  if (cell.is_double()) {
    return DoubleKey(cell.double_value());
  }
  return exact ? static_cast<uint64_t>(cell.int64_value()) ^ kSignBit
               : DoubleKey(static_cast<double>(cell.int64_value()));
}

}  // namespace

ColumnEncoder::ColumnEncoder(ValueType type, ColumnKind kind)
    : type_(type),
      exact_(type == ValueType::kInt64 && kind == ColumnKind::kCategorical) {}

void ColumnEncoder::Observe(const Value& cell) {
  if (cell.is_null()) {
    return;
  }
  AUTOCAT_CHECK(cell.type() == type_);
  if (type_ == ValueType::kString) {
    dict_.try_emplace(cell.string_value(), 0);
    return;
  }
  if (cell.is_double() && std::isnan(cell.double_value())) {
    return;
  }
  keys_.push_back(RankKey(cell, exact_));
  // Deduplicating each time the keys double keeps them within twice the
  // distinct ones, at amortized O(log) per cell.
  if (keys_.size() >= 2 * std::max(distinct_, kRankDedupMin)) {
    Seal();
  }
}

void ColumnEncoder::Seal() {
  if (type_ != ValueType::kString) {
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
    distinct_ = keys_.size();
    return;
  }
  // string_view order is std::string order is Value string order.
  std::vector<std::pair<std::string_view, uint32_t*>> sorted;
  sorted.reserve(dict_.size());
  for (auto& [s, code] : dict_) {
    sorted.emplace_back(s, &code);
  }
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    *sorted[i].second = static_cast<uint32_t>(i);
  }
}

ZoneEntry& ColumnEncoder::NextZone() {
  std::vector<ZoneEntry>& zones = out_.zones;
  if (zones.empty() || zones.back().row_count == kZoneRows) {
    zones.emplace_back();
    zone_seen_ = false;
  }
  ++zones.back().row_count;
  return zones.back();
}

template <typename T>
void ColumnEncoder::Widen(T v) {
  ZoneEntry& zone = out_.zones.back();
  T lo = v;
  T hi = v;
  if (zone_seen_) {
    if constexpr (std::is_same_v<T, double>) {
      lo = std::min(std::bit_cast<double>(zone.min_bits), v);
      hi = std::max(std::bit_cast<double>(zone.max_bits), v);
    } else {
      lo = std::min(static_cast<T>(zone.min_bits), v);
      hi = std::max(static_cast<T>(zone.max_bits), v);
    }
  }
  if constexpr (std::is_same_v<T, double>) {
    zone.min_bits = std::bit_cast<uint64_t>(lo);
    zone.max_bits = std::bit_cast<uint64_t>(hi);
  } else {
    zone.min_bits = static_cast<uint64_t>(lo);
    zone.max_bits = static_cast<uint64_t>(hi);
  }
  zone_seen_ = true;
}

ColumnEncoder::Cell ColumnEncoder::Encode(const Value& cell) {
  const size_t r = rows_++;
  if ((r & 63) == 0) {
    out_.null_words.push_back(0);
  }
  if (cell.is_null()) {
    out_.null_words.back() |= uint64_t{1} << (r & 63);
    ++out_.null_count;
    if (type_ == ValueType::kNull) {
      return Cell{};
    }
    NextZone();
    return Cell{0, type_ == ValueType::kString ? 0 : kNoKey};
  }
  ++NextZone().valid_count;
  Cell out;
  switch (type_) {
    case ValueType::kString:
      out.code = dict_.find(cell.string_value())->second;
      Widen(out.code);
      return out;
    case ValueType::kInt64:
      out.bits = static_cast<uint64_t>(cell.int64_value());
      Widen(cell.int64_value());
      break;
    case ValueType::kDouble:
      out.bits = std::bit_cast<uint64_t>(cell.double_value());
      if (std::isnan(cell.double_value())) {
        out_.zones.back().has_nan = true;
        out.code = kNoKey;
        return out;
      }
      Widen(cell.double_value());
      break;
    case ValueType::kNull:
      break;
  }
  out.code = static_cast<uint32_t>(
      std::lower_bound(keys_.begin(), keys_.end(), RankKey(cell, exact_)) -
      keys_.begin());
  return out;
}

ColumnEncoder::Output ColumnEncoder::Finish() && {
  out_.dict.resize(dict_.size());
  while (!dict_.empty()) {
    auto node = dict_.extract(dict_.begin());
    out_.dict[node.mapped()] = std::move(node.key());
  }
  return std::move(out_);
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
  const size_t n = table.num_rows();
  std::vector<ColumnEncoder> encoders;
  for (const ColumnDef& def : table.schema().columns()) {
    encoders.emplace_back(def.type, def.kind);
  }
  Row scratch;
  for (size_t r = 0; r < n; ++r) {
    const Row& row = table.RowRef(r, &scratch);
    for (size_t c = 0; c < encoders.size(); ++c) {
      encoders[c].Observe(row[c]);
    }
  }
  ColumnarTable out;
  out.num_rows_ = n;
  out.columns_.resize(encoders.size());
  for (size_t c = 0; c < encoders.size(); ++c) {
    encoders[c].Seal();
    Column& col = out.columns_[c];
    col.type = table.schema().column(c).type;
    if (col.type == ValueType::kInt64) {
      col.owned_i64.resize(n);
    } else if (col.type == ValueType::kDouble) {
      col.owned_f64.resize(n);
    }
    if (col.type != ValueType::kNull) {
      col.owned_codes.resize(n);
    }
  }
  for (size_t r = 0; r < n; ++r) {
    const Row& row = table.RowRef(r, &scratch);
    for (size_t c = 0; c < encoders.size(); ++c) {
      Column& col = out.columns_[c];
      const ColumnEncoder::Cell cell = encoders[c].Encode(row[c]);
      if (col.type == ValueType::kInt64) {
        col.owned_i64[r] = static_cast<int64_t>(cell.bits);
      } else if (col.type == ValueType::kDouble) {
        col.owned_f64[r] = std::bit_cast<double>(cell.bits);
      }
      if (col.type != ValueType::kNull) {
        col.owned_codes[r] = cell.code;
      }
    }
  }
  for (size_t c = 0; c < encoders.size(); ++c) {
    Column& col = out.columns_[c];
    ColumnEncoder::Output encoded = std::move(encoders[c]).Finish();
    col.owned_null_words = std::move(encoded.null_words);
    col.null_count = encoded.null_count;
    col.dict = std::move(encoded.dict);
    col.zones = std::move(encoded.zones);
    col.PointAtOwned();
    if (col.type == ValueType::kString) {
      DerivePostings(n, &col);
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
