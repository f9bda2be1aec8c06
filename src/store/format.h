#ifndef AUTOCAT_STORE_FORMAT_H_
#define AUTOCAT_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace autocat {

/// On-disk layout of a segment store file (little-endian throughout):
///
///   page 0          header: magic, version, page size, endianness probe,
///                   catalog region reference (patched in last)
///   pages 1..k      per-column regions, each starting on a page boundary:
///                   exactly the arrays `ColumnarTable::Build` derives —
///                     - null bitmap (raw uint64 words; bit r = row r NULL)
///                     - values: raw int64 or double cells (not strings)
///                     - codes: uint32 dictionary or rank codes
///                     - zones: kZoneWords uint64 words per kZoneRows rows
///                     - for strings: dictionary offsets + blob
///   tail            catalog (EncodeCatalog bytes), page-aligned
///
/// Every array region is page-aligned and therefore alignment-safe to
/// expose as a typed span straight out of the mapping: opening a table
/// decodes nothing but the dictionaries and zones, and derives only the
/// posting lists.
inline constexpr char kStoreMagic[8] = {'A', 'C', 'A', 'T',
                                        'S', 'G', '0', '2'};
inline constexpr uint32_t kStoreFormatVersion = 2;
inline constexpr uint64_t kStorePageSize = 4096;
/// Written as fixed32; reads back differently on a big-endian host, which
/// the header check turns into a clean kNotSupported.
inline constexpr uint32_t kEndianProbe = 0x01020304;
/// Words per zone entry: valid_count | has_nan << 32, min_bits, max_bits
/// (the row count follows from the entry's position).
inline constexpr uint64_t kZoneWords = 3;

/// A byte range within the store file.
struct RegionRef {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

struct ColumnMeta {
  std::string name;
  uint8_t value_type = 0;   // autocat::ValueType
  uint8_t column_kind = 0;  // autocat::ColumnKind
  uint64_t null_count = 0;
  RegionRef null_words;
  RegionRef values;  // int64/double only
  RegionRef codes;
  RegionRef zones;
  // Strings only; dict_offsets holds (dict_count + 1) fixed64 entries.
  uint64_t dict_count = 0;
  RegionRef dict_offsets;
  RegionRef dict_blob;
};

struct TableMeta {
  std::string name;
  uint64_t num_rows = 0;
  std::vector<ColumnMeta> columns;
};

struct StoreCatalog {
  std::vector<TableMeta> tables;
};

/// Serializes the catalog (varint/length-prefixed; parse with
/// DecodeCatalog).
std::string EncodeCatalog(const StoreCatalog& catalog);

/// Parses catalog bytes. Malformed input — truncation, overflowing
/// counts, out-of-range enums — returns kParseError; counts are never
/// trusted for allocation ahead of the bytes that back them.
Result<StoreCatalog> DecodeCatalog(const char* data, size_t size);

/// Serializes the fixed-size header (always < one page).
std::string EncodeHeader(RegionRef catalog);

/// Parses and validates the header; returns the catalog region. A store
/// of another format generation is kNotSupported.
Result<RegionRef> DecodeHeader(const char* data, size_t size);

/// Encodes a sorted dictionary as (count + 1) fixed64 offsets plus a
/// concatenated string blob.
void EncodeDict(const std::vector<std::string>& dict,
                std::string* offsets_out, std::string* blob_out);

/// Decodes and validates a dictionary: offsets must be monotone within
/// the blob and the strings strictly ascending (code order == value
/// order is what the kernels' accept tables rely on).
Result<std::vector<std::string>> DecodeDict(std::string_view offsets,
                                            std::string_view blob,
                                            uint64_t count);

}  // namespace autocat

#endif  // AUTOCAT_STORE_FORMAT_H_
