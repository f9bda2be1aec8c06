// libFuzzer harness for the segment store's decode surface: varint /
// fixed-width readers, dictionary decode, catalog decode, header decode,
// and whole store images. The store's safety contract is that every
// decoder consumes attacker-controlled (pointer, size) buffers and
// reports malformed input through Status — never UB, never a count
// trusted for allocation ahead of the bytes that back it. The harness
// asserts behavioral properties on top of "no crash":
//
//   1. Every decoder terminates with ok() or an error Status.
//   2. A dictionary that decodes must be strictly ascending (the kernels'
//      accept tables index it by code and rely on code order == value
//      order).
//   3. A catalog that decodes must re-encode and re-decode to a fixed
//      point (the writer emits canonical bytes, so decode(encode(x)) can
//      never fail for a decodable x).
//   4. A whole image — written to a scratch file, opened with
//      SegmentStore::Open, every table with OpenTable — ends in a Status,
//      and a table that opens reads back every row in bounds (enforced
//      by ASan on the mapping and the derived posting lists).
//
// The first input byte selects the target; the rest is the payload.
// Built as a libFuzzer target (autocat_store_fuzzer) under clang; always
// linked with fuzz_replay_main.cc into autocat_store_fuzz_replay, which
// replays tests/fuzz/store_corpus under plain ctest.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "store/coding.h"
#include "store/format.h"
#include "store/store.h"

namespace {

using autocat::ByteReader;
using autocat::DecodeCatalog;
using autocat::DecodeDict;
using autocat::DecodeHeader;
using autocat::EncodeCatalog;
using autocat::Result;
using autocat::Row;
using autocat::SegmentStore;
using autocat::StoreCatalog;
using autocat::Table;

void FuzzByteReader(const char* data, size_t size) {
  ByteReader reader(data, size);
  // Walk the buffer with a rotating schedule of reads until exhausted or
  // an error; every outcome must be a clean Status.
  size_t step = 0;
  while (!reader.empty()) {
    bool ok = false;
    switch (step++ % 5) {
      case 0:
        ok = reader.ReadVarint64().ok();
        break;
      case 1:
        ok = reader.ReadFixed32().ok();
        break;
      case 2:
        ok = reader.ReadFixed64().ok();
        break;
      case 3:
        ok = reader.ReadLengthPrefixed().ok();
        break;
      default:
        ok = reader.Skip(1).ok();
        break;
    }
    if (!ok) {
      break;
    }
  }
}

void FuzzStoreImage(const char* data, size_t size) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("autocat_store_fuzz_" + std::to_string(::getpid()) + ".store"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data, static_cast<std::streamsize>(size));
    if (!out) {
      std::fprintf(stderr, "store fuzz: cannot write %s\n", path.c_str());
      std::abort();  // autocat-lint: allow(banned-call) — harness failure
    }
  }
  const Result<SegmentStore> store = SegmentStore::Open(path);
  if (store.ok()) {
    for (const std::string& name : store.value().TableNames()) {
      const Result<Table> table = store.value().OpenTable(name);
      if (table.ok()) {
        Row row;
        for (size_t r = 0; r < table.value().num_rows(); ++r) {
          (void)table.value().RowRef(r, &row);
        }
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void FuzzDict(const char* data, size_t size) {
  if (size < 2) {
    return;
  }
  // Split point and count both attacker-chosen; clamp the split to the
  // payload so the harness itself never indexes out of range.
  const size_t split =
      std::min(static_cast<uint8_t>(data[0]) * size / 256, size - 2);
  const uint64_t count = static_cast<uint8_t>(data[1]);
  const std::string_view payload(data + 2, size - 2);
  const std::string_view offsets = payload.substr(0, split);
  const std::string_view blob = payload.substr(split);
  const Result<std::vector<std::string>> dict =
      DecodeDict(offsets, blob, count);
  if (dict.ok()) {
    const std::vector<std::string>& d = dict.value();
    for (size_t i = 1; i < d.size(); ++i) {
      if (!(d[i - 1] < d[i])) {
        std::fprintf(stderr,
                     "store fuzz: decoded dictionary not strictly "
                     "ascending at %zu\n",
                     i);
        std::abort();  // autocat-lint: allow(banned-call) — fuzz property
      }
    }
  }
}

void FuzzCatalog(const char* data, size_t size) {
  const Result<StoreCatalog> catalog = DecodeCatalog(data, size);
  if (!catalog.ok()) {
    return;
  }
  // Fixed point: canonical re-encode must decode cleanly.
  const std::string reencoded = EncodeCatalog(catalog.value());
  const Result<StoreCatalog> again =
      DecodeCatalog(reencoded.data(), reencoded.size());
  if (!again.ok()) {
    std::fprintf(stderr, "store fuzz: re-encoded catalog rejected: %s\n",
                 again.status().ToString().c_str());
    std::abort();  // autocat-lint: allow(banned-call) — fuzz property
  }
  if (again.value().tables.size() != catalog.value().tables.size()) {
    std::fprintf(stderr, "store fuzz: catalog round trip lost tables\n");
    std::abort();  // autocat-lint: allow(banned-call) — fuzz property
  }
}

void FuzzHeader(const char* data, size_t size) {
  (void)DecodeHeader(data, size);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) {
    return 0;
  }
  const char* payload = reinterpret_cast<const char*>(data) + 1;
  const size_t payload_size = size - 1;
  switch (data[0] % 5) {
    case 0:
      FuzzByteReader(payload, payload_size);
      break;
    case 1:
      FuzzStoreImage(payload, payload_size);
      break;
    case 2:
      FuzzDict(payload, payload_size);
      break;
    case 3:
      FuzzCatalog(payload, payload_size);
      break;
    default:
      FuzzHeader(payload, payload_size);
      break;
  }
  return 0;
}
