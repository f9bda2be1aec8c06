#include "store/store.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "store/segment.h"

namespace autocat {

namespace {

// Rows per chunk of the parallel dictionary-code validation scan.
constexpr uint64_t kCodeScanChunk = 256 * 1024;

// Zones per segment: both widths are powers of two and a segment is the
// larger, so every zone sits inside exactly one segment.
static_assert(kSegmentRows % kZoneRows == 0,
              "a segment must cover whole zones");

uint64_t PopcountWords(const ColumnSpan<uint64_t>& words) {
  uint64_t bits = 0;
  for (const uint64_t w : words) {
    bits += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  return bits;
}

// Surfaces the catalog's per-segment extrema as per-zone metadata on a
// mapped column: each 64 Ki-row segment's min/max replicate across its
// 32 zones (a widening the prover's verdicts stay sound under), while
// row/valid counts come exact from the mapped null bitmap. The store
// format records no NaN presence — the writer excludes NaN from double
// extrema — so double columns pay one `x != x` pass here to set
// `has_nan` per zone; without it the extrema could not be trusted for
// pruning at all.
void SurfaceZones(const ColumnMeta& cm, uint64_t n,
                  ColumnarTable::Column* col) {
  if (n == 0) {
    return;
  }
  const size_t num_zones =
      static_cast<size_t>((n + kZoneRows - 1) / kZoneRows);
  col->zones.resize(num_zones);
  for (size_t z = 0; z < num_zones; ++z) {
    ZoneEntry& zone = col->zones[z];
    const size_t begin = z * kZoneRows;
    const size_t end =
        std::min(static_cast<size_t>(n), begin + kZoneRows);
    zone.row_count = static_cast<uint32_t>(end - begin);
    size_t nulls = 0;
    for (size_t w = begin >> 6; w << 6 < end; ++w) {
      uint64_t word = col->null_words[w];
      if (((w + 1) << 6) > end) {
        word &= (uint64_t{1} << (end & 63)) - 1;  // partial tail word
      }
      nulls += static_cast<size_t>(__builtin_popcountll(word));
    }
    zone.valid_count = static_cast<uint32_t>(end - begin - nulls);
    if (zone.valid_count == 0) {
      continue;
    }
    const SegmentMeta& seg = cm.segments[begin / kSegmentRows];
    zone.min_bits = seg.min_bits;
    zone.max_bits = seg.max_bits;
    if (col->type == ValueType::kDouble) {
      for (size_t r = begin; r < end; ++r) {
        const double v = col->f64[r];
        if (v != v && !col->IsNull(r)) {
          zone.has_nan = true;
          break;
        }
      }
    }
  }
}

// Structural validation of one column's segment list against the table's
// row count: full segments of kSegmentRows rows, one trailing partial,
// valid counts consistent with the column's null count.
Status ValidateSegments(const ColumnMeta& col, uint64_t num_rows) {
  const uint64_t expected =
      num_rows == 0 ? 0 : (num_rows + kSegmentRows - 1) / kSegmentRows;
  if (col.segments.size() != expected) {
    return Status::ParseError("column '" + col.name + "' has " +
                              std::to_string(col.segments.size()) +
                              " segments, expected " +
                              std::to_string(expected));
  }
  uint64_t rows = 0;
  uint64_t valid = 0;
  for (size_t s = 0; s < col.segments.size(); ++s) {
    const SegmentMeta& seg = col.segments[s];
    const bool last = s + 1 == col.segments.size();
    if (!last && seg.row_count != kSegmentRows) {
      return Status::ParseError("column '" + col.name +
                                "': non-final segment is partial");
    }
    rows += seg.row_count;
    valid += seg.valid_count;
  }
  if (rows != num_rows) {
    return Status::ParseError("column '" + col.name + "' segments cover " +
                              std::to_string(rows) + " rows, table has " +
                              std::to_string(num_rows));
  }
  if (col.null_count > num_rows || valid != num_rows - col.null_count) {
    return Status::ParseError("column '" + col.name +
                              "': segment valid counts disagree with the "
                              "null count");
  }
  return Status::OK();
}

}  // namespace

Result<SegmentStore> SegmentStore::Open(const std::string& path) {
  SegmentStore store;
  AUTOCAT_ASSIGN_OR_RETURN(std::unique_ptr<MappedFile> file,
                           MappedFile::OpenReadOnly(path));
  store.file_ = std::move(file);
  store.buffers_ = std::make_shared<BufferManager>(store.file_);
  AUTOCAT_ASSIGN_OR_RETURN(const std::string_view header,
                           store.buffers_->Page(0));
  AUTOCAT_ASSIGN_OR_RETURN(const RegionRef catalog_region,
                           DecodeHeader(header.data(), header.size()));
  AUTOCAT_ASSIGN_OR_RETURN(const std::string_view catalog_bytes,
                           store.buffers_->Bytes(catalog_region));
  AUTOCAT_ASSIGN_OR_RETURN(
      store.catalog_,
      DecodeCatalog(catalog_bytes.data(), catalog_bytes.size()));
  for (size_t i = 0; i < store.catalog_.tables.size(); ++i) {
    for (size_t j = i + 1; j < store.catalog_.tables.size(); ++j) {
      if (store.catalog_.tables[i].name == store.catalog_.tables[j].name) {
        return Status::ParseError("duplicate table '" +
                                  store.catalog_.tables[i].name +
                                  "' in store catalog");
      }
    }
  }
  return store;
}

std::vector<std::string> SegmentStore::TableNames() const {
  std::vector<std::string> names;
  names.reserve(catalog_.tables.size());
  for (const TableMeta& table : catalog_.tables) {
    names.push_back(table.name);
  }
  return names;
}

Result<Table> SegmentStore::OpenTable(const std::string& name) const {
  const TableMeta* meta = nullptr;
  for (const TableMeta& table : catalog_.tables) {
    if (table.name == name) {
      meta = &table;
      break;
    }
  }
  if (meta == nullptr) {
    return Status::NotFound("no table '" + name + "' in store");
  }

  std::vector<ColumnDef> defs;
  defs.reserve(meta->columns.size());
  for (const ColumnMeta& col : meta->columns) {
    defs.emplace_back(col.name, static_cast<ValueType>(col.value_type),
                      static_cast<ColumnKind>(col.column_kind));
  }
  AUTOCAT_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(defs)));

  const uint64_t n = meta->num_rows;
  const uint64_t words = (n + 63) / 64;
  std::vector<ColumnarTable::Column> columns;
  columns.reserve(meta->columns.size());
  for (const ColumnMeta& cm : meta->columns) {
    AUTOCAT_RETURN_IF_ERROR(ValidateSegments(cm, n));
    ColumnarTable::Column col;
    col.type = static_cast<ValueType>(cm.value_type);
    col.null_count = static_cast<size_t>(cm.null_count);
    AUTOCAT_ASSIGN_OR_RETURN(
        col.null_words, buffers_->Region<uint64_t>(cm.null_words, words));
    if (PopcountWords(col.null_words) != cm.null_count) {
      return Status::ParseError("column '" + cm.name +
                                "': null bitmap disagrees with the "
                                "catalog's null count");
    }
    if (n > 0 &&
        (col.null_words[(n - 1) >> 6] &
         ~((n % 64 == 0) ? ~uint64_t{0}
                         : ((uint64_t{1} << (n % 64)) - 1))) != 0) {
      return Status::ParseError("column '" + cm.name +
                                "': null bits set past the last row");
    }

    switch (static_cast<ColumnEncoding>(cm.encoding)) {
      case ColumnEncoding::kVarintI64: {
        if (col.type != ValueType::kInt64) {
          return Status::ParseError("column '" + cm.name +
                                    "': varint encoding on a non-int64 "
                                    "column");
        }
        AUTOCAT_ASSIGN_OR_RETURN(const std::string_view data,
                                 buffers_->Bytes(cm.data));
        col.owned_i64.resize(static_cast<size_t>(n));
        // Validate contiguity and pre-compute each segment's row offset
        // sequentially (cheap), then decode the segments in parallel —
        // they write disjoint ranges of owned_i64, and this decode is
        // the dominant cost of mapping a store at service start.
        std::vector<uint64_t> row_offsets;
        row_offsets.reserve(cm.segments.size());
        uint64_t row = 0;
        uint64_t offset = 0;
        for (const SegmentMeta& seg : cm.segments) {
          if (seg.byte_offset != offset ||
              seg.byte_length > data.size() - offset) {
            return Status::ParseError("column '" + cm.name +
                                      "': segment byte ranges are not "
                                      "contiguous within the data region");
          }
          row_offsets.push_back(row);
          row += seg.row_count;
          offset += seg.byte_length;
        }
        if (offset != data.size()) {
          return Status::ParseError("column '" + cm.name +
                                    "': trailing bytes in the data region");
        }
        std::vector<Status> decoded(cm.segments.size());
        auto decode_range = [&](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            const SegmentMeta& seg = cm.segments[s];
            decoded[s] = DecodeInt64Segment(
                data.data() + seg.byte_offset,
                static_cast<size_t>(seg.byte_length), seg.row_count,
                col.owned_i64.data() + row_offsets[s]);
          }
          return Status::OK();
        };
        const Status dispatched = ParallelFor(
            ParallelOptions{}, 0, cm.segments.size(), 1, decode_range);
        if (!dispatched.ok()) {
          // Pool unavailable (e.g. OpenTable from inside another
          // parallel region): decode on the calling thread instead.
          (void)decode_range(0, cm.segments.size());
        }
        for (const Status& status : decoded) {
          AUTOCAT_RETURN_IF_ERROR(status);
        }
        col.i64 = ColumnSpan<int64_t>(col.owned_i64);
        break;
      }
      case ColumnEncoding::kRawF64: {
        if (col.type != ValueType::kDouble) {
          return Status::ParseError("column '" + cm.name +
                                    "': raw-double encoding on a "
                                    "non-double column");
        }
        AUTOCAT_ASSIGN_OR_RETURN(col.f64,
                                 buffers_->Region<double>(cm.data, n));
        break;
      }
      case ColumnEncoding::kDictCodes: {
        if (col.type != ValueType::kString) {
          return Status::ParseError("column '" + cm.name +
                                    "': dictionary encoding on a "
                                    "non-string column");
        }
        AUTOCAT_ASSIGN_OR_RETURN(col.codes,
                                 buffers_->Region<uint32_t>(cm.data, n));
        AUTOCAT_ASSIGN_OR_RETURN(const std::string_view offsets,
                                 buffers_->Bytes(cm.dict_offsets));
        AUTOCAT_ASSIGN_OR_RETURN(const std::string_view blob,
                                 buffers_->Bytes(cm.dict_blob));
        AUTOCAT_ASSIGN_OR_RETURN(col.dict,
                                 DecodeDict(offsets, blob, cm.dict_count));
        // Kernel safety: every slot (NULL slots hold the default 0) must
        // index into the dictionary-sized accept tables. An all-NULL
        // column legitimately has an empty dictionary and all-zero codes,
        // mirroring ColumnarTable::Build.
        if (col.dict.empty() && cm.null_count != n) {
          return Status::ParseError("column '" + cm.name +
                                    "': empty dictionary with non-NULL "
                                    "rows");
        }
        // The scan is pure validation over an immutable span, so chunks
        // can run in parallel; each reports only the lowest bad row it
        // saw and the final verdict picks the overall lowest, keeping
        // the error deterministic. An empty dictionary (all-NULL column)
        // requires limit 1: every default-filled slot must be code 0.
        {
          const uint32_t limit = static_cast<uint32_t>(
              col.dict.empty() ? 1 : col.dict.size());
          const size_t num_chunks =
              (static_cast<size_t>(n) + kCodeScanChunk - 1) / kCodeScanChunk;
          std::vector<uint64_t> bad_row(num_chunks, n);
          auto scan_range = [&](size_t begin, size_t end) {
            for (size_t c = begin; c < end; ++c) {
              const uint64_t lo = static_cast<uint64_t>(c) * kCodeScanChunk;
              const uint64_t hi =
                  std::min<uint64_t>(n, lo + kCodeScanChunk);
              // Branch-free max-reduce first (vectorizes); only a chunk
              // that actually holds a bad code pays the positional scan.
              uint32_t max_code = 0;
              for (uint64_t r = lo; r < hi; ++r) {
                max_code = std::max(max_code, col.codes[r]);
              }
              if (max_code >= limit) {
                for (uint64_t r = lo; r < hi; ++r) {
                  if (col.codes[r] >= limit) {
                    bad_row[c] = r;
                    break;
                  }
                }
              }
            }
            return Status::OK();
          };
          const Status dispatched = ParallelFor(
              ParallelOptions{}, 0, num_chunks, 1, scan_range);
          if (!dispatched.ok()) {
            (void)scan_range(0, num_chunks);
          }
          for (const uint64_t r : bad_row) {
            if (r < n) {
              return Status::ParseError(
                  "column '" + cm.name + "': code " +
                  std::to_string(col.codes[r]) + " at row " +
                  std::to_string(r) + " out of dictionary range");
            }
          }
        }
        break;
      }
    }
    SurfaceZones(cm, n, &col);
    columns.push_back(std::move(col));
  }

  auto columnar = std::make_shared<const ColumnarTable>(
      ColumnarTable::FromColumns(static_cast<size_t>(n), std::move(columns),
                                 file_));
  return Table::FromColumnar(std::move(schema), std::move(columnar));
}

Status AttachStoreTables(const std::string& path, Database* db) {
  if (db == nullptr) {
    return Status::InvalidArgument("db must not be null");
  }
  AUTOCAT_ASSIGN_OR_RETURN(const SegmentStore store,
                           SegmentStore::Open(path));
  std::vector<std::pair<std::string, Table>> tables;
  for (const std::string& name : store.TableNames()) {
    if (db->HasTable(name)) {
      return Status::AlreadyExists("table '" + name +
                                   "' already registered");
    }
    AUTOCAT_ASSIGN_OR_RETURN(Table table, store.OpenTable(name));
    tables.emplace_back(name, std::move(table));
  }
  for (auto& [name, table] : tables) {
    AUTOCAT_RETURN_IF_ERROR(db->RegisterTable(name, std::move(table)));
  }
  return Status::OK();
}

}  // namespace autocat
