#include "store/format.h"

#include "common/value.h"
#include "store/coding.h"
#include "storage/schema.h"

namespace autocat {

namespace {

void AppendRegion(const RegionRef& r, std::string* out) {
  AppendFixed64(r.offset, out);
  AppendFixed64(r.bytes, out);
}

Result<RegionRef> ReadRegion(ByteReader* r) {
  RegionRef out;
  AUTOCAT_ASSIGN_OR_RETURN(out.offset, r->ReadFixed64());
  AUTOCAT_ASSIGN_OR_RETURN(out.bytes, r->ReadFixed64());
  return out;
}

bool ValidValueType(uint8_t t) {
  switch (static_cast<ValueType>(t)) {
    case ValueType::kInt64:
    case ValueType::kDouble:
    case ValueType::kString:
      return true;
    case ValueType::kNull:
      return false;
  }
  return false;
}

bool ValidColumnKind(uint8_t k) {
  return k == static_cast<uint8_t>(ColumnKind::kCategorical) ||
         k == static_cast<uint8_t>(ColumnKind::kNumeric);
}

Result<ColumnMeta> ReadColumn(ByteReader* r) {
  ColumnMeta col;
  AUTOCAT_ASSIGN_OR_RETURN(const std::string_view name,
                           r->ReadLengthPrefixed());
  col.name.assign(name);
  if (col.name.empty()) {
    return Status::ParseError("empty column name");
  }
  AUTOCAT_ASSIGN_OR_RETURN(const uint64_t vt, r->ReadVarint64());
  AUTOCAT_ASSIGN_OR_RETURN(const uint64_t kind, r->ReadVarint64());
  if (vt > 255 || !ValidValueType(static_cast<uint8_t>(vt))) {
    return Status::ParseError("invalid value type in column '" + col.name +
                              "'");
  }
  if (kind > 255 || !ValidColumnKind(static_cast<uint8_t>(kind))) {
    return Status::ParseError("invalid column kind in column '" + col.name +
                              "'");
  }
  col.value_type = static_cast<uint8_t>(vt);
  col.column_kind = static_cast<uint8_t>(kind);
  AUTOCAT_ASSIGN_OR_RETURN(col.null_count, r->ReadVarint64());
  AUTOCAT_ASSIGN_OR_RETURN(col.null_words, ReadRegion(r));
  AUTOCAT_ASSIGN_OR_RETURN(col.values, ReadRegion(r));
  AUTOCAT_ASSIGN_OR_RETURN(col.codes, ReadRegion(r));
  AUTOCAT_ASSIGN_OR_RETURN(col.zones, ReadRegion(r));
  AUTOCAT_ASSIGN_OR_RETURN(col.dict_count, r->ReadVarint64());
  AUTOCAT_ASSIGN_OR_RETURN(col.dict_offsets, ReadRegion(r));
  AUTOCAT_ASSIGN_OR_RETURN(col.dict_blob, ReadRegion(r));
  return col;
}

}  // namespace

std::string EncodeCatalog(const StoreCatalog& catalog) {
  std::string out;
  AppendVarint64(catalog.tables.size(), &out);
  for (const TableMeta& table : catalog.tables) {
    AppendLengthPrefixed(table.name, &out);
    AppendVarint64(table.num_rows, &out);
    AppendVarint64(table.columns.size(), &out);
    for (const ColumnMeta& col : table.columns) {
      AppendLengthPrefixed(col.name, &out);
      AppendVarint64(col.value_type, &out);
      AppendVarint64(col.column_kind, &out);
      AppendVarint64(col.null_count, &out);
      AppendRegion(col.null_words, &out);
      AppendRegion(col.values, &out);
      AppendRegion(col.codes, &out);
      AppendRegion(col.zones, &out);
      AppendVarint64(col.dict_count, &out);
      AppendRegion(col.dict_offsets, &out);
      AppendRegion(col.dict_blob, &out);
    }
  }
  return out;
}

Result<StoreCatalog> DecodeCatalog(const char* data, size_t size) {
  ByteReader r(data, size);
  StoreCatalog catalog;
  AUTOCAT_ASSIGN_OR_RETURN(const uint64_t ntables, r.ReadVarint64());
  if (ntables > r.remaining()) {
    return Status::ParseError("table count exceeds catalog bytes");
  }
  for (uint64_t t = 0; t < ntables; ++t) {
    TableMeta table;
    AUTOCAT_ASSIGN_OR_RETURN(const std::string_view name,
                             r.ReadLengthPrefixed());
    table.name.assign(name);
    if (table.name.empty()) {
      return Status::ParseError("empty table name");
    }
    AUTOCAT_ASSIGN_OR_RETURN(table.num_rows, r.ReadVarint64());
    AUTOCAT_ASSIGN_OR_RETURN(const uint64_t ncols, r.ReadVarint64());
    if (ncols > r.remaining()) {
      return Status::ParseError("column count exceeds catalog bytes");
    }
    for (uint64_t c = 0; c < ncols; ++c) {
      AUTOCAT_ASSIGN_OR_RETURN(ColumnMeta col, ReadColumn(&r));
      table.columns.push_back(std::move(col));
    }
    catalog.tables.push_back(std::move(table));
  }
  if (!r.empty()) {
    return Status::ParseError("trailing bytes after catalog");
  }
  return catalog;
}

std::string EncodeHeader(RegionRef catalog) {
  std::string out(kStoreMagic, sizeof(kStoreMagic));
  AppendFixed32(kStoreFormatVersion, &out);
  AppendFixed32(static_cast<uint32_t>(kStorePageSize), &out);
  AppendFixed32(kEndianProbe, &out);
  AppendRegion(catalog, &out);
  return out;
}

Result<RegionRef> DecodeHeader(const char* data, size_t size) {
  ByteReader r(data, size);
  if (size < sizeof(kStoreMagic)) {
    return Status::ParseError("file too small for a store header");
  }
  // The last two magic bytes name the format generation.
  if (std::memcmp(data, kStoreMagic, sizeof(kStoreMagic) - 2) != 0) {
    return Status::ParseError("bad store magic (not a segment store file)");
  }
  if (std::memcmp(data, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return Status::NotSupported(
        "store format " + std::string(data, sizeof(kStoreMagic)) +
        " not supported (this build reads " +
        std::string(kStoreMagic, sizeof(kStoreMagic)) +
        "); rewrite the store with this build's StoreWriter");
  }
  AUTOCAT_RETURN_IF_ERROR(r.Skip(sizeof(kStoreMagic)));
  AUTOCAT_ASSIGN_OR_RETURN(const uint32_t version, r.ReadFixed32());
  if (version != kStoreFormatVersion) {
    return Status::NotSupported("store format version " +
                                std::to_string(version) + " not supported");
  }
  AUTOCAT_ASSIGN_OR_RETURN(const uint32_t page_size, r.ReadFixed32());
  if (page_size != kStorePageSize) {
    return Status::ParseError("unexpected page size " +
                              std::to_string(page_size));
  }
  AUTOCAT_ASSIGN_OR_RETURN(const uint32_t endian, r.ReadFixed32());
  if (endian != kEndianProbe) {
    return Status::NotSupported(
        "store file written with a different byte order");
  }
  return ReadRegion(&r);
}

void EncodeDict(const std::vector<std::string>& dict,
                std::string* offsets_out, std::string* blob_out) {
  uint64_t offset = 0;
  AppendFixed64(0, offsets_out);
  for (const std::string& s : dict) {
    blob_out->append(s);
    offset += s.size();
    AppendFixed64(offset, offsets_out);
  }
}

Result<std::vector<std::string>> DecodeDict(std::string_view offsets,
                                            std::string_view blob,
                                            uint64_t count) {
  if (count > (uint64_t{1} << 32)) {
    return Status::ParseError("dictionary count exceeds 32-bit code space");
  }
  if (offsets.size() != (count + 1) * 8) {
    return Status::ParseError("dictionary offsets region holds " +
                              std::to_string(offsets.size()) +
                              " bytes, expected " +
                              std::to_string((count + 1) * 8));
  }
  std::vector<std::string> dict;
  dict.reserve(static_cast<size_t>(count));
  uint64_t prev_off = 0;
  std::memcpy(&prev_off, offsets.data(), 8);
  if (prev_off != 0) {
    return Status::ParseError("dictionary offsets must start at 0");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t next_off = 0;
    std::memcpy(&next_off, offsets.data() + (i + 1) * 8, 8);
    if (next_off < prev_off || next_off > blob.size()) {
      return Status::ParseError("dictionary offsets not monotone within "
                                "the blob");
    }
    dict.emplace_back(blob.substr(static_cast<size_t>(prev_off),
                                  static_cast<size_t>(next_off - prev_off)));
    if (i > 0 && !(dict[static_cast<size_t>(i) - 1] < dict.back())) {
      return Status::ParseError(
          "dictionary not strictly ascending at code " + std::to_string(i));
    }
    prev_off = next_off;
  }
  if (prev_off != blob.size()) {
    return Status::ParseError("dictionary blob has trailing bytes");
  }
  return dict;
}

}  // namespace autocat
