#include "storage/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "storage/attr_index.h"

namespace autocat {

namespace {

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Exact per-zone metadata for a filled column: one pass per zone
// over the typed array and the owned null bitmap (zone bounds are
// multiples of 64, so each zone owns whole bitmap words). Extrema follow
// the SegmentMeta physical-domain convention; double extrema exclude NaN
// and record its presence in has_nan instead.
void ComputeZones(ColumnarTable::Column* col, size_t n) {
  if (n == 0 || col->type == ValueType::kNull) {
    return;
  }
  const size_t num_zones = (n + kZoneRows - 1) / kZoneRows;
  col->zones.resize(num_zones);
  for (size_t z = 0; z < num_zones; ++z) {
    ZoneEntry& zone = col->zones[z];
    const size_t begin = z * kZoneRows;
    const size_t end = std::min(n, begin + kZoneRows);
    zone.row_count = static_cast<uint32_t>(end - begin);
    size_t nulls = 0;
    for (size_t w = begin >> 6; w << 6 < end; ++w) {
      uint64_t word = col->owned_null_words[w];
      if (((w + 1) << 6) > end) {
        word &= (uint64_t{1} << (end & 63)) - 1;  // partial tail word
      }
      nulls += static_cast<size_t>(__builtin_popcountll(word));
    }
    zone.valid_count = static_cast<uint32_t>(end - begin - nulls);
    if (zone.valid_count == 0) {
      continue;
    }
    switch (col->type) {
      case ValueType::kInt64: {
        int64_t lo = 0;
        int64_t hi = 0;
        bool seen = false;
        for (size_t r = begin; r < end; ++r) {
          if (col->IsNull(r)) {
            continue;
          }
          const int64_t v = col->owned_i64[r];
          lo = seen ? std::min(lo, v) : v;
          hi = seen ? std::max(hi, v) : v;
          seen = true;
        }
        zone.min_bits = static_cast<uint64_t>(lo);
        zone.max_bits = static_cast<uint64_t>(hi);
        break;
      }
      case ValueType::kDouble: {
        double lo = 0;
        double hi = 0;
        bool seen = false;
        for (size_t r = begin; r < end; ++r) {
          if (col->IsNull(r)) {
            continue;
          }
          const double v = col->owned_f64[r];
          if (std::isnan(v)) {
            zone.has_nan = true;
            continue;
          }
          lo = seen ? std::min(lo, v) : v;
          hi = seen ? std::max(hi, v) : v;
          seen = true;
        }
        if (seen) {
          zone.min_bits = DoubleBits(lo);
          zone.max_bits = DoubleBits(hi);
        }
        break;
      }
      case ValueType::kString: {
        uint32_t lo = 0;
        uint32_t hi = 0;
        bool seen = false;
        for (size_t r = begin; r < end; ++r) {
          if (col->IsNull(r)) {
            continue;
          }
          const uint32_t code = col->owned_codes[r];
          lo = seen ? std::min(lo, code) : code;
          hi = seen ? std::max(hi, code) : code;
          seen = true;
        }
        zone.min_bits = lo;
        zone.max_bits = hi;
        break;
      }
      case ValueType::kNull:
        break;
    }
  }
}

}  // namespace

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
    return Build(TableView::All(table, nullptr).Materialize());
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
        break;
      case ValueType::kDouble:
        col.owned_f64.assign(n, 0);
        break;
      case ValueType::kString:
        col.owned_codes.assign(n, 0);
        break;
      case ValueType::kNull:
        break;
    }
    col.PointAtOwned();
    if (col.type == ValueType::kString) {
      // Pass 1: sorted distinct strings. string_view order equals
      // std::string order equals Value string order.
      std::map<std::string_view, uint32_t> dict_map;
      for (size_t r = 0; r < n; ++r) {
        const Value& v = table.ValueAt(r, c);
        if (v.is_null()) {
          col.owned_null_words[r >> 6] |= uint64_t{1} << (r & 63);
          ++col.null_count;
        } else {
          AUTOCAT_CHECK(v.is_string());
          dict_map.emplace(v.string_value(), 0);
        }
      }
      col.dict.reserve(dict_map.size());
      for (auto& [sv, code] : dict_map) {
        code = static_cast<uint32_t>(col.dict.size());
        col.dict.emplace_back(sv);
      }
      // Pass 2: codes, counting each code's rows into its offsets slot.
      const size_t dict_size = col.dict.size();
      col.posting_offsets.assign(dict_size + 1, 0);
      for (size_t r = 0; r < n; ++r) {
        const Value& v = table.ValueAt(r, c);
        if (!v.is_null()) {
          const uint32_t code = dict_map.find(v.string_value())->second;
          col.owned_codes[r] = code;
          ++col.posting_offsets[code];
        }
      }
      // Pass 3: posting lists, filled in place. An inclusive prefix sum
      // turns slot c into the end of code c's list; walking the rows
      // backwards and pre-decrementing the slot writes each list in
      // ascending row order and leaves slot c at its start, so no second
      // cursor array is needed.
      uint32_t total = 0;
      for (size_t code = 0; code < dict_size; ++code) {
        total += col.posting_offsets[code];
        col.posting_offsets[code] = total;
      }
      col.posting_offsets[dict_size] = total;
      col.posting_rows.resize(total);
      for (size_t r = n; r-- > 0;) {
        if (!col.IsNull(r)) {
          col.posting_rows[--col.posting_offsets[col.owned_codes[r]]] =
              static_cast<uint32_t>(r);
        }
      }
      ComputeZones(&col, n);
      continue;
    }
    for (size_t r = 0; r < n; ++r) {
      const Value& v = table.ValueAt(r, c);
      if (v.is_null()) {
        col.owned_null_words[r >> 6] |= uint64_t{1} << (r & 63);
        ++col.null_count;
        continue;
      }
      AUTOCAT_CHECK(v.type() == col.type);
      if (col.type == ValueType::kInt64) {
        col.owned_i64[r] = v.int64_value();
      } else if (col.type == ValueType::kDouble) {
        col.owned_f64[r] = v.double_value();
      }
    }
    ComputeZones(&col, n);
    if (col.type == ValueType::kInt64 || col.type == ValueType::kDouble) {
      // Rank codes: the column has none yet, so SortedKeys sorts and
      // ranks its cells, once per table lifetime.
      std::vector<uint32_t> all_rows(n);
      std::iota(all_rows.begin(), all_rows.end(), uint32_t{0});
      const std::vector<KeyOrderEntry> ranked =
          SortedKeys(col, table.schema().column(c).kind, all_rows, nullptr);
      col.owned_codes.assign(n, kNoKey);
      for (const auto& [code, row] : ranked) {
        col.owned_codes[row] = code;
      }
      col.PointAtOwned();
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

TableView TableView::All(const Table& base,
                         std::shared_ptr<const ColumnarTable> columnar) {
  std::vector<uint32_t> rows(base.num_rows());
  std::iota(rows.begin(), rows.end(), uint32_t{0});
  Result<TableView> view = Create(base, std::move(columnar), std::move(rows),
                                  /*columns=*/{});
  AUTOCAT_CHECK(view.ok());
  return std::move(view).value();
}

Result<TableView> TableView::Create(
    const Table& base, std::shared_ptr<const ColumnarTable> columnar,
    std::vector<uint32_t> rows, const std::vector<std::string>& columns) {
  if (columnar != nullptr && columnar != base.columnar_backing()) {
    return Status::InvalidArgument(
        "a view reads its base table's own columnar backing, not another "
        "shadow");
  }
  for (const uint32_t r : rows) {
    if (r >= base.num_rows()) {
      return Status::OutOfRange("row index " + std::to_string(r) +
                                " out of range");
    }
  }
  TableView view;
  if (columns.empty()) {
    view.projection_.resize(base.num_columns());
    std::iota(view.projection_.begin(), view.projection_.end(), size_t{0});
    view.schema_ = base.schema();
  } else {
    std::vector<ColumnDef> cols;
    cols.reserve(columns.size());
    view.projection_.reserve(columns.size());
    for (const std::string& name : columns) {
      AUTOCAT_ASSIGN_OR_RETURN(const size_t idx,
                               base.schema().ColumnIndex(name));
      cols.push_back(base.schema().column(idx));
      view.projection_.push_back(idx);
    }
    AUTOCAT_ASSIGN_OR_RETURN(view.schema_, Schema::Create(std::move(cols)));
  }
  if (base.has_rows()) {
    // A row-store base: its shadow's coordinates are its own.
    view.columnar_ =
        std::make_shared<const ColumnarTable>(ColumnarTable::Build(base));
  } else {
    // Compose the base's maps: the view addresses the backing directly.
    for (uint32_t& r : rows) {
      r = static_cast<uint32_t>(base.BackingRow(r));
    }
    for (size_t& c : view.projection_) {
      c = base.projection_[c];
    }
    view.columnar_ = base.columnar_backing();
  }
  view.rows_ = std::move(rows);
  return view;
}

Table TableView::Materialize() const {
  Table out(schema_);
  out.rows_.reserve(rows_.size());
  for (const uint32_t r : rows_) {
    Row projected;
    projected.reserve(projection_.size());
    for (const size_t c : projection_) {
      projected.push_back(columnar_->column(c).CellValue(r));
    }
    out.rows_.push_back(std::move(projected));
  }
  return out;
}

Table TableView::AsTable() const {
  AUTOCAT_CHECK(columnar_ != nullptr);
  Table out(schema_);
  out.columnar_ = columnar_;
  out.columnar_rows_ = rows_.size();
  out.selected_ = true;
  out.selection_ = rows_;
  out.projection_.assign(projection_.begin(), projection_.end());
  return out;
}

}  // namespace autocat
