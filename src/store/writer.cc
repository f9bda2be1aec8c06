#include "store/writer.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "common/value.h"
#include "store/mapped_file.h"

namespace autocat {

namespace {

// Appends the raw bytes of `v` to a spill file.
template <typename T>
void Put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

}  // namespace

// A fully encoded table waiting for Finish() to place its regions.
struct StoreWriter::PendingTable {
  std::string name;
  Schema schema;
  uint64_t num_rows = 0;

  struct Col {
    // Spill files, each named once it exists (values: int64/double only).
    std::string values_path;
    std::string codes_path;
    ColumnEncoder::Output encoded;
  };
  std::vector<Col> cols;
};

StoreWriter::StoreWriter(std::string path, StoreWriterOptions options)
    : path_(std::move(path)), options_(std::move(options)) {}

StoreWriter::~StoreWriter() {
  if (!finished_) {
    // Abandoned writer: drop spill state (run files die with the sorter).
    for (const auto& pending : pending_) {
      RemoveSpillFiles(*pending);
    }
    std::error_code ec;
    std::filesystem::remove(options_.temp_dir, ec);
  }
}

Result<std::unique_ptr<StoreWriter>> StoreWriter::Create(
    std::string path, StoreWriterOptions options) {
  if (path.empty()) {
    return Status::InvalidArgument("store path must not be empty");
  }
  if (options.temp_dir.empty()) {
    options.temp_dir = path + ".tmp";
  }
  return std::unique_ptr<StoreWriter>(
      new StoreWriter(std::move(path), std::move(options)));
}

Status StoreWriter::BeginTable(const std::string& name,
                               const Schema& schema) {
  if (finished_) {
    return Status::InvalidArgument("BeginTable after Finish");
  }
  if (current_ != nullptr) {
    return Status::InvalidArgument("finish table '" + current_->name +
                                   "' before starting '" + name + "'");
  }
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table '" + name + "' has no columns");
  }
  for (const ColumnDef& def : schema.columns()) {
    if (def.type == ValueType::kNull) {
      // The reader refuses a column without a value type.
      return Status::InvalidArgument("column '" + def.name + "' of table '" +
                                     name + "' has no value type");
    }
  }
  for (const auto& pending : pending_) {
    if (pending->name == name) {
      return Status::AlreadyExists("table '" + name +
                                   "' already written to this store");
    }
  }
  SorterOptions sorter_options;
  sorter_options.memory_budget_bytes = options_.memory_budget_bytes;
  sorter_options.temp_dir = options_.temp_dir;
  for (const std::string& col : options_.sort_columns) {
    AUTOCAT_ASSIGN_OR_RETURN(const size_t idx, schema.ColumnIndex(col));
    sorter_options.sort_columns.push_back(idx);
  }
  current_ = std::make_unique<PendingTable>();
  current_->name = name;
  current_->schema = schema;
  current_->cols.resize(schema.num_columns());
  sorter_ = std::make_unique<ExternalRowSorter>(schema,
                                                std::move(sorter_options));
  for (const ColumnDef& def : schema.columns()) {
    encoders_.emplace_back(def.type, def.kind);
  }
  return Status::OK();
}

Status StoreWriter::Append(Row row) {
  if (current_ == nullptr) {
    return Status::InvalidArgument("Append outside BeginTable/FinishTable");
  }
  AUTOCAT_RETURN_IF_ERROR(CoerceRowToSchema(&row, current_->schema));
  for (size_t c = 0; c < row.size(); ++c) {
    encoders_[c].Observe(row[c]);
  }
  ++stats_.rows;
  return sorter_->AddRow(row);
}

Status StoreWriter::FinishTable() {
  if (current_ == nullptr) {
    return Status::InvalidArgument("FinishTable without BeginTable");
  }
  std::unique_ptr<PendingTable> pending = std::move(current_);
  Status status = EncodeTable(pending.get());
  const Status cleanup = sorter_->Cleanup();
  sorter_.reset();
  encoders_.clear();
  if (status.ok()) {
    status = cleanup;
  }
  if (!status.ok()) {
    RemoveSpillFiles(*pending);
    return status;
  }
  pending_.push_back(std::move(pending));
  return Status::OK();
}

void StoreWriter::RemoveSpillFiles(const PendingTable& pending) {
  for (const auto& col : pending.cols) {
    for (const std::string* path : {&col.values_path, &col.codes_path}) {
      if (!path->empty()) {
        std::error_code ec;
        std::filesystem::remove(*path, ec);
      }
    }
  }
}

Status StoreWriter::EncodeTable(PendingTable* t) {
  AUTOCAT_RETURN_IF_ERROR(sorter_->Finish());
  stats_.spilled_runs += sorter_->num_runs();
  t->num_rows = sorter_->num_rows();
  if (t->num_rows > std::numeric_limits<uint32_t>::max()) {
    // Codes are 32-bit, and the reader refuses such a table.
    return Status::NotSupported("table '" + t->name +
                                "' has more rows than 32-bit row ids reach");
  }
  const size_t ncols = t->schema.num_columns();

  std::error_code ec;
  std::filesystem::create_directories(options_.temp_dir, ec);
  if (ec) {
    return Status::IOError("cannot create temp dir '" + options_.temp_dir +
                           "': " + ec.message());
  }

  // Opens a spill file, naming it in `recorded` once it exists.
  auto open_spill = [](const std::string& path, std::ofstream* out,
                       std::string* recorded) -> Status {
    out->open(path, std::ios::binary | std::ios::trunc);
    if (!*out) {
      return Status::IOError("cannot create column spill file '" + path +
                             "'");
    }
    *recorded = path;
    return Status::OK();
  };
  struct Spill {
    std::ofstream values;
    std::ofstream codes;
  };
  std::vector<Spill> spill(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    encoders_[c].Seal();
    PendingTable::Col& col = t->cols[c];
    const std::string base =
        options_.temp_dir + "/" + t->name + "_col" + std::to_string(c);
    if (t->schema.column(c).type != ValueType::kString) {
      AUTOCAT_RETURN_IF_ERROR(
          open_spill(base + ".values", &spill[c].values, &col.values_path));
    }
    AUTOCAT_RETURN_IF_ERROR(
        open_spill(base + ".codes", &spill[c].codes, &col.codes_path));
  }

  // Replays the merged stream once, encoding each cell into the spill
  // files exactly as ColumnarTable::Build stores it.
  AUTOCAT_ASSIGN_OR_RETURN(ExternalRowSorter::Stream stream,
                           sorter_->OpenStream());
  Row row;
  for (;;) {
    AUTOCAT_ASSIGN_OR_RETURN(const bool more, stream.Next(&row));
    if (!more) {
      break;
    }
    for (size_t c = 0; c < ncols; ++c) {
      const ColumnEncoder::Cell cell = encoders_[c].Encode(row[c]);
      if (spill[c].values.is_open()) {
        Put(spill[c].values, cell.bits);
      }
      Put(spill[c].codes, cell.code);
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    t->cols[c].encoded = std::move(encoders_[c]).Finish();
    for (std::ofstream* out : {&spill[c].values, &spill[c].codes}) {
      if (out->is_open()) {
        out->close();
        if (!*out) {
          return Status::IOError("cannot write the spill files of column '" +
                                 t->schema.column(c).name + "'");
        }
      }
    }
  }
  return Status::OK();
}

Status StoreWriter::Finish() {
  if (finished_) {
    return Status::InvalidArgument("Finish called twice");
  }
  if (current_ != nullptr) {
    return Status::InvalidArgument("finish table '" + current_->name +
                                   "' before finishing the store");
  }
  AUTOCAT_ASSIGN_OR_RETURN(std::unique_ptr<MappedFile> file,
                           MappedFile::Create(path_));
  // Page 0: header placeholder, patched after the catalog lands.
  {
    const std::string zeros(kStorePageSize, '\0');
    AUTOCAT_RETURN_IF_ERROR(file->Append(zeros.data(), zeros.size()));
  }

  // Appends a spill file's contents in chunks, returning its region,
  // which must hold `expected` bytes.
  auto append_file = [&](const std::string& path,
                         uint64_t expected) -> Result<RegionRef> {
    AUTOCAT_RETURN_IF_ERROR(file->PadTo(kStorePageSize));
    RegionRef region;
    region.offset = file->size();
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IOError("cannot reopen column spill file '" + path +
                             "'");
    }
    std::string buf(4ull << 20, '\0');
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      const std::streamsize got = in.gcount();
      if (got > 0) {
        AUTOCAT_RETURN_IF_ERROR(
            file->Append(buf.data(), static_cast<size_t>(got)));
      }
    }
    region.bytes = file->size() - region.offset;
    if (region.bytes != expected) {
      return Status::Internal("column spill file '" + path +
                              "' changed size");
    }
    return region;
  };

  auto append_bytes = [&](const void* data, size_t n) -> Result<RegionRef> {
    AUTOCAT_RETURN_IF_ERROR(file->PadTo(kStorePageSize));
    RegionRef region;
    region.offset = file->size();
    region.bytes = n;
    AUTOCAT_RETURN_IF_ERROR(file->Append(data, n));
    return region;
  };

  StoreCatalog catalog;
  for (const auto& pending : pending_) {
    TableMeta table;
    table.name = pending->name;
    table.num_rows = pending->num_rows;
    for (size_t c = 0; c < pending->cols.size(); ++c) {
      const PendingTable::Col& src = pending->cols[c];
      const ColumnDef& def = pending->schema.column(c);
      ColumnMeta col;
      col.name = def.name;
      col.value_type = static_cast<uint8_t>(def.type);
      col.column_kind = static_cast<uint8_t>(def.kind);
      col.null_count = src.encoded.null_count;
      const std::vector<uint64_t>& nulls = src.encoded.null_words;
      AUTOCAT_ASSIGN_OR_RETURN(col.null_words,
                               append_bytes(nulls.data(), nulls.size() * 8));
      if (def.type != ValueType::kString) {
        AUTOCAT_ASSIGN_OR_RETURN(
            col.values, append_file(src.values_path, pending->num_rows * 8));
      }
      AUTOCAT_ASSIGN_OR_RETURN(
          col.codes, append_file(src.codes_path, pending->num_rows * 4));
      std::vector<uint64_t> zone_words;
      zone_words.reserve(src.encoded.zones.size() * kZoneWords);
      for (const ZoneEntry& zone : src.encoded.zones) {
        zone_words.push_back(zone.valid_count |
                             uint64_t{zone.has_nan} << 32);
        zone_words.push_back(zone.min_bits);
        zone_words.push_back(zone.max_bits);
      }
      AUTOCAT_ASSIGN_OR_RETURN(
          col.zones, append_bytes(zone_words.data(), zone_words.size() * 8));
      if (def.type == ValueType::kString) {
        std::string offsets;
        std::string blob;
        EncodeDict(src.encoded.dict, &offsets, &blob);
        col.dict_count = src.encoded.dict.size();
        AUTOCAT_ASSIGN_OR_RETURN(col.dict_offsets,
                                 append_bytes(offsets.data(),
                                              offsets.size()));
        AUTOCAT_ASSIGN_OR_RETURN(col.dict_blob,
                                 append_bytes(blob.data(), blob.size()));
      }
      table.columns.push_back(std::move(col));
    }
    catalog.tables.push_back(std::move(table));
  }

  const std::string catalog_bytes = EncodeCatalog(catalog);
  AUTOCAT_ASSIGN_OR_RETURN(
      const RegionRef catalog_region,
      append_bytes(catalog_bytes.data(), catalog_bytes.size()));
  const std::string header = EncodeHeader(catalog_region);
  AUTOCAT_RETURN_IF_ERROR(file->WriteAt(0, header.data(), header.size()));
  AUTOCAT_RETURN_IF_ERROR(file->Finish());
  stats_.file_bytes = file->size();

  // Spill files served their purpose.
  for (const auto& pending : pending_) {
    RemoveSpillFiles(*pending);
  }
  std::error_code ec;
  std::filesystem::remove(options_.temp_dir, ec);
  finished_ = true;
  return Status::OK();
}

}  // namespace autocat
