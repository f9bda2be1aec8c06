#include "store/store.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/thread_pool.h"

namespace autocat {

namespace {

// Rows per chunk of the parallel dictionary-code validation scan.
constexpr uint64_t kCodeScanChunk = 256 * 1024;

// Runs `fn(i)` for every i in [0, count) on the shared pool, or on the
// calling thread when the pool refuses (OpenTable from inside another
// parallel region). Each i must touch only its own state.
void ForEachParallel(size_t count, const std::function<void(size_t)>& fn) {
  auto range = [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return Status::OK();
  };
  if (!ParallelFor(ParallelOptions{}, 0, count, 1, range).ok()) {
    (void)range(0, count);
  }
}

// NULL rows among rows [begin, end) of a bitmap; `begin` is a multiple
// of 64.
uint64_t NullsIn(const ColumnSpan<uint64_t>& words, uint64_t begin,
                 uint64_t end) {
  uint64_t nulls = 0;
  for (uint64_t w = begin >> 6; w << 6 < end; ++w) {
    uint64_t word = words[w];
    if (((w + 1) << 6) > end) {
      word &= (uint64_t{1} << (end & 63)) - 1;  // partial tail word
    }
    nulls += static_cast<uint64_t>(__builtin_popcountll(word));
  }
  return nulls;
}

Status ColumnError(const ColumnMeta& cm, const std::string& what) {
  return Status::ParseError("column '" + cm.name + "': " + what);
}

// Checks that every code of a string column indexes its dictionary (NULL
// slots hold the default 0; an all-NULL column's empty dictionary admits
// only that). The scan is pure validation over an immutable span, so
// chunks run in parallel; each reports only the lowest bad row it saw
// and the verdict picks the overall lowest, keeping the error
// deterministic.
Status CheckCodeRange(const ColumnMeta& cm, uint64_t n,
                      const ColumnarTable::Column& col) {
  const uint32_t limit =
      static_cast<uint32_t>(col.dict.empty() ? 1 : col.dict.size());
  const size_t num_chunks =
      static_cast<size_t>((n + kCodeScanChunk - 1) / kCodeScanChunk);
  std::vector<uint64_t> bad_row(num_chunks, n);
  ForEachParallel(num_chunks, [&](size_t c) {
    const uint64_t lo = static_cast<uint64_t>(c) * kCodeScanChunk;
    const uint64_t hi = std::min<uint64_t>(n, lo + kCodeScanChunk);
    // Branch-free max-reduce first (vectorizes); only a chunk that
    // actually holds a bad code pays the positional scan.
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
  });
  for (const uint64_t r : bad_row) {
    if (r < n) {
      return ColumnError(cm, "code " + std::to_string(col.codes[r]) +
                                 " at row " + std::to_string(r) +
                                 " out of dictionary range");
    }
  }
  return Status::OK();
}

// Reads a column's zone entries. Each zone's valid count must match the
// null bitmap and only a double zone may flag a NaN; the extrema are
// trusted, as the writer derived them.
Status ReadZones(const BufferManager& buffers, const ColumnMeta& cm,
                 uint64_t n, ColumnarTable::Column* col) {
  const uint64_t num_zones = (n + kZoneRows - 1) / kZoneRows;
  AUTOCAT_ASSIGN_OR_RETURN(
      const ColumnSpan<uint64_t> words,
      buffers.Region<uint64_t>(cm.zones, num_zones * kZoneWords));
  const uint64_t max_nan_flag = col->type == ValueType::kDouble ? 1 : 0;
  col->zones.resize(static_cast<size_t>(num_zones));
  for (size_t z = 0; z < num_zones; ++z) {
    ZoneEntry& zone = col->zones[z];
    const uint64_t begin = z * kZoneRows;
    const uint64_t end = std::min<uint64_t>(n, begin + kZoneRows);
    const uint64_t head = words[z * kZoneWords];
    zone.row_count = static_cast<uint32_t>(end - begin);
    zone.valid_count = static_cast<uint32_t>(head);
    zone.has_nan = (head >> 32) != 0;
    zone.min_bits = words[z * kZoneWords + 1];
    zone.max_bits = words[z * kZoneWords + 2];
    if (zone.valid_count != end - begin - NullsIn(col->null_words, begin, end)) {
      return ColumnError(cm, "zone " + std::to_string(z) +
                                 " valid count disagrees with the null "
                                 "bitmap");
    }
    if ((head >> 32) > max_nan_flag) {
      return ColumnError(cm, "zone " + std::to_string(z) +
                                 " has an invalid NaN flag");
    }
  }
  return Status::OK();
}

// Maps one column's arrays zero-copy and validates everything the
// kernels index by: bitmap size and popcount, region sizes, dictionary
// order and code range, zone counts. Posting lists come later.
Status MapColumn(const BufferManager& buffers, const ColumnMeta& cm,
                 uint64_t n, ColumnarTable::Column* col) {
  col->type = static_cast<ValueType>(cm.value_type);
  col->null_count = static_cast<size_t>(cm.null_count);
  AUTOCAT_ASSIGN_OR_RETURN(
      col->null_words, buffers.Region<uint64_t>(cm.null_words, (n + 63) / 64));
  uint64_t nulls = 0;
  for (const uint64_t w : col->null_words) {
    nulls += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  if (nulls != cm.null_count) {
    return ColumnError(cm, "null bitmap disagrees with the catalog's null "
                           "count");
  }
  if (n % 64 != 0 && (col->null_words[n >> 6] >> (n % 64)) != 0) {
    return ColumnError(cm, "null bits set past the last row");
  }
  AUTOCAT_ASSIGN_OR_RETURN(col->codes, buffers.Region<uint32_t>(cm.codes, n));
  const bool is_string = col->type == ValueType::kString;
  if (is_string ? cm.values.bytes != 0 : cm.dict_count != 0) {
    return ColumnError(cm, is_string ? "values region on a string column"
                                     : "dictionary on a non-string column");
  }
  switch (col->type) {
    case ValueType::kInt64: {
      AUTOCAT_ASSIGN_OR_RETURN(col->i64, buffers.Region<int64_t>(cm.values, n));
      break;
    }
    case ValueType::kDouble: {
      AUTOCAT_ASSIGN_OR_RETURN(col->f64, buffers.Region<double>(cm.values, n));
      break;
    }
    case ValueType::kString: {
      AUTOCAT_ASSIGN_OR_RETURN(const std::string_view offsets,
                               buffers.Bytes(cm.dict_offsets));
      AUTOCAT_ASSIGN_OR_RETURN(const std::string_view blob,
                               buffers.Bytes(cm.dict_blob));
      AUTOCAT_ASSIGN_OR_RETURN(col->dict,
                               DecodeDict(offsets, blob, cm.dict_count));
      if (col->dict.empty() && cm.null_count != n) {
        return ColumnError(cm, "empty dictionary with non-NULL rows");
      }
      AUTOCAT_RETURN_IF_ERROR(CheckCodeRange(cm, n, *col));
      break;
    }
    case ValueType::kNull:
      break;
  }
  return ReadZones(buffers, cm, n, col);
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
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::ParseError("table '" + name +
                              "' has more rows than 32-bit row ids reach");
  }
  std::vector<ColumnarTable::Column> columns(meta->columns.size());
  std::vector<size_t> string_columns;
  for (size_t c = 0; c < columns.size(); ++c) {
    AUTOCAT_RETURN_IF_ERROR(
        MapColumn(*buffers_, meta->columns[c], n, &columns[c]));
    if (columns[c].type == ValueType::kString) {
      string_columns.push_back(c);
    }
  }
  // Posting lists only once every code passed its range check. This
  // thread sizes them, so a table opened again reuses its allocator's
  // memory; each column fills only its own lists. The codes are read
  // again by queries only where they touch them, so the pages the checks
  // and the derivation read go back to the page cache.
  for (const size_t c : string_columns) {
    columns[c].posting_offsets.resize(columns[c].dict.size() + 1);
    columns[c].posting_rows.resize(static_cast<size_t>(n) -
                                   columns[c].null_count);
  }
  ForEachParallel(string_columns.size(), [&](size_t i) {
    ColumnarTable::Column& col = columns[string_columns[i]];
    ColumnarTable::DerivePostings(static_cast<size_t>(n), &col);
    file_->ReleasePages(col.codes.data(), col.codes.size() * sizeof(uint32_t));
  });

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
