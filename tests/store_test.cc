// Unit suite for the segment store (src/store/): byte-level codecs, the
// mapped file and buffer manager, the external-sort bulk loader, and
// full writer -> file -> SegmentStore round trips including corrupt-file
// rejection. The cross-engine equivalence gate lives in
// store_equivalence_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "store/buffer_manager.h"
#include "store/coding.h"
#include "store/format.h"
#include "store/mapped_file.h"
#include "store/segment.h"
#include "store/sorter.h"
#include "store/store.h"
#include "store/writer.h"

namespace autocat {
namespace {

namespace fs = std::filesystem;

// A per-test scratch directory under the system temp dir, removed on
// destruction so failed runs don't accumulate store files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("autocat_store_test_" + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() { fs::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

// ------------------------------------------------------------------ coding

TEST(StoreCodingTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            (1ull << 63),
                            std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (const uint64_t v : cases) {
    AppendVarint64(v, &buf);
  }
  ByteReader reader(buf.data(), buf.size());
  for (const uint64_t v : cases) {
    const Result<uint64_t> got = reader.ReadVarint64();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), v);
  }
  EXPECT_TRUE(reader.empty());
}

TEST(StoreCodingTest, VarintTruncatedIsError) {
  std::string buf;
  AppendVarint64(std::numeric_limits<uint64_t>::max(), &buf);
  for (size_t len = 0; len < buf.size(); ++len) {
    ByteReader reader(buf.data(), len);
    EXPECT_FALSE(reader.ReadVarint64().ok()) << "prefix length " << len;
  }
}

TEST(StoreCodingTest, VarintOverflowIsError) {
  // Ten continuation bytes with a final byte carrying bits beyond 2^64.
  const std::string overflow(
      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 10);
  ByteReader reader(overflow.data(), overflow.size());
  EXPECT_FALSE(reader.ReadVarint64().ok());
  // Eleven continuation bytes: too long regardless of value.
  const std::string overlong(
      "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", 11);
  ByteReader reader2(overlong.data(), overlong.size());
  EXPECT_FALSE(reader2.ReadVarint64().ok());
}

TEST(StoreCodingTest, ZigZagRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -2, 2,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (const int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(StoreCodingTest, FixedWidthRoundTripAndTruncation) {
  std::string buf;
  AppendFixed32(0xdeadbeef, &buf);
  AppendFixed64(0x0123456789abcdefull, &buf);
  ByteReader reader(buf.data(), buf.size());
  EXPECT_EQ(reader.ReadFixed32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadFixed64().value(), 0x0123456789abcdefull);
  EXPECT_TRUE(reader.empty());

  ByteReader truncated(buf.data(), 3);
  EXPECT_FALSE(truncated.ReadFixed32().ok());
  ByteReader truncated64(buf.data(), 11);
  EXPECT_TRUE(truncated64.ReadFixed32().ok());
  EXPECT_FALSE(truncated64.ReadFixed64().ok());
}

TEST(StoreCodingTest, LengthPrefixedRoundTripAndOverrun) {
  std::string buf;
  AppendLengthPrefixed("hello", &buf);
  AppendLengthPrefixed("", &buf);
  ByteReader reader(buf.data(), buf.size());
  EXPECT_EQ(reader.ReadLengthPrefixed().value(), "hello");
  EXPECT_EQ(reader.ReadLengthPrefixed().value(), "");
  EXPECT_TRUE(reader.empty());

  // A length that promises more bytes than the buffer holds.
  std::string hostile;
  AppendVarint64(1000, &hostile);
  hostile += "abc";
  ByteReader bad(hostile.data(), hostile.size());
  EXPECT_FALSE(bad.ReadLengthPrefixed().ok());

  ByteReader skipper(buf.data(), buf.size());
  EXPECT_TRUE(skipper.Skip(buf.size()).ok());
  EXPECT_FALSE(skipper.Skip(1).ok());
}

// ----------------------------------------------------------------- segment

TEST(StoreSegmentTest, Int64SegmentRoundTrip) {
  Random rng(31337);
  std::vector<int64_t> values;
  for (int i = 0; i < 5000; ++i) {
    switch (rng.Uniform(0, 4)) {
      case 0:
        values.push_back(rng.Uniform(-1000, 1000));
        break;
      case 1:
        values.push_back(std::numeric_limits<int64_t>::min());
        break;
      case 2:
        values.push_back(std::numeric_limits<int64_t>::max());
        break;
      default:
        values.push_back(static_cast<int64_t>(rng.Uniform(0, 1 << 30)) *
                         rng.Uniform(-100, 100));
        break;
    }
  }
  std::string encoded;
  EncodeInt64Segment(values.data(), values.size(), &encoded);
  std::vector<int64_t> decoded(values.size());
  const Status status = DecodeInt64Segment(encoded.data(), encoded.size(),
                                           values.size(), decoded.data());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded, values);
}

TEST(StoreSegmentTest, SortedRunCompressesWell) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 10000; ++i) {
    values.push_back(100000 + i * 3);
  }
  std::string encoded;
  EncodeInt64Segment(values.data(), values.size(), &encoded);
  // Constant small deltas: ~1 byte per row, far below the 8 raw bytes.
  EXPECT_LT(encoded.size(), values.size() * 2);
}

TEST(StoreSegmentTest, Int64SegmentMalformedIsError) {
  std::vector<int64_t> values = {1, 2, 3};
  std::string encoded;
  EncodeInt64Segment(values.data(), values.size(), &encoded);
  std::vector<int64_t> out(3);
  // Trailing garbage (append a real NUL byte; a "\x00" literal is empty).
  std::string padded = encoded;
  padded.push_back('\0');
  EXPECT_FALSE(
      DecodeInt64Segment(padded.data(), padded.size(), 3, out.data()).ok());
  // Truncation at every prefix.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(
        DecodeInt64Segment(encoded.data(), len, 3, out.data()).ok());
  }
  // Row-count mismatch.
  std::vector<int64_t> big(4);
  EXPECT_FALSE(
      DecodeInt64Segment(encoded.data(), encoded.size(), 4, big.data())
          .ok());
}

TEST(StoreSegmentTest, DictRoundTrip) {
  const std::vector<std::string> dict = {"", "Ballard", "Bellevue",
                                         "Queen Anne", "Seattle"};
  std::string offsets;
  std::string blob;
  EncodeDict(dict, &offsets, &blob);
  EXPECT_EQ(offsets.size(), (dict.size() + 1) * 8);
  const Result<std::vector<std::string>> decoded =
      DecodeDict(offsets, blob, dict.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), dict);

  std::string empty_offsets;
  std::string empty_blob;
  EncodeDict({}, &empty_offsets, &empty_blob);
  const Result<std::vector<std::string>> empty =
      DecodeDict(empty_offsets, empty_blob, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(StoreSegmentTest, DictRejectsMalformed) {
  const std::vector<std::string> dict = {"a", "b", "c"};
  std::string offsets;
  std::string blob;
  EncodeDict(dict, &offsets, &blob);

  // Count larger than the offsets can carry.
  EXPECT_FALSE(DecodeDict(offsets, blob, 4).ok());
  // Offsets buffer truncated.
  EXPECT_FALSE(
      DecodeDict(std::string_view(offsets).substr(0, 8), blob, 3).ok());
  // Unsorted dictionary: swap "a" and "b" in the blob.
  std::string swapped_blob = blob;
  std::swap(swapped_blob[0], swapped_blob[1]);
  EXPECT_FALSE(DecodeDict(offsets, swapped_blob, 3).ok());
  // Duplicate strings (equal neighbors violate strict ascent).
  std::string dup_blob = blob;
  dup_blob[1] = dup_blob[0];
  EXPECT_FALSE(DecodeDict(offsets, dup_blob, 3).ok());
  // Non-monotone offsets: make the second offset run backwards.
  std::string bad_offsets = offsets;
  bad_offsets[8] = 2;
  bad_offsets[16] = 1;
  EXPECT_FALSE(DecodeDict(bad_offsets, blob, 3).ok());
  // Blob not fully consumed by the final offset.
  EXPECT_FALSE(DecodeDict(offsets, blob + "x", 3).ok());
}

// ------------------------------------------------------------- mapped file

TEST(StoreMappedFileTest, CreateWriteFinishReopen) {
  const ScratchDir scratch("mapped");
  const std::string path = scratch.Path("f.bin");
  {
    Result<std::unique_ptr<MappedFile>> file = MappedFile::Create(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    MappedFile& f = *file.value();
    const std::string header(64, '\0');
    ASSERT_TRUE(f.Append(header.data(), header.size()).ok());
    ASSERT_TRUE(f.PadTo(kStorePageSize).ok());
    EXPECT_EQ(f.size(), kStorePageSize);
    const std::string payload = "segment payload bytes";
    ASSERT_TRUE(f.Append(payload.data(), payload.size()).ok());
    // Patch the header after the fact, as Finish() does for the catalog.
    const std::string patch = "MAGICNUM";
    ASSERT_TRUE(f.WriteAt(0, patch.data(), patch.size()).ok());
    // Out-of-range patches are refused.
    EXPECT_FALSE(f.WriteAt(f.size() - 2, patch.data(), patch.size()).ok());
    ASSERT_TRUE(f.Finish().ok());
    EXPECT_FALSE(f.writable());
    // Writes after Finish are refused.
    EXPECT_FALSE(f.Append(payload.data(), payload.size()).ok());
  }
  // On disk: exactly the logical size, not the 64 MiB grow step.
  EXPECT_EQ(fs::file_size(path), kStorePageSize + 21);

  Result<std::unique_ptr<MappedFile>> reopened =
      MappedFile::OpenReadOnly(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const MappedFile& ro = *reopened.value();
  EXPECT_EQ(ro.size(), kStorePageSize + 21);
  EXPECT_EQ(std::string_view(ro.data(), 8), "MAGICNUM");
  EXPECT_EQ(std::string_view(ro.data() + kStorePageSize, 21),
            "segment payload bytes");
}

TEST(StoreMappedFileTest, OpenMissingOrEmptyIsError) {
  const ScratchDir scratch("mapped_err");
  EXPECT_FALSE(MappedFile::OpenReadOnly(scratch.Path("missing")).ok());
  {
    std::ofstream touch(scratch.Path("empty"));
  }
  EXPECT_FALSE(MappedFile::OpenReadOnly(scratch.Path("empty")).ok());
}

// ---------------------------------------------------------- buffer manager

TEST(StoreBufferManagerTest, BoundsAndAlignment) {
  const ScratchDir scratch("bufmgr");
  const std::string path = scratch.Path("f.bin");
  {
    Result<std::unique_ptr<MappedFile>> file = MappedFile::Create(path);
    ASSERT_TRUE(file.ok());
    std::vector<uint64_t> words = {1, 2, 3, 4};
    ASSERT_TRUE(file.value()
                    ->Append(words.data(), words.size() * sizeof(uint64_t))
                    .ok());
    ASSERT_TRUE(file.value()->PadTo(kStorePageSize).ok());
    ASSERT_TRUE(file.value()->Append("tail", 4).ok());
    ASSERT_TRUE(file.value()->Finish().ok());
  }
  Result<std::unique_ptr<MappedFile>> ro = MappedFile::OpenReadOnly(path);
  ASSERT_TRUE(ro.ok());
  const BufferManager buffers(std::move(ro).value());
  EXPECT_EQ(buffers.file_bytes(), kStorePageSize + 4);
  EXPECT_EQ(buffers.num_pages(), 2u);

  // Full first page; short final page.
  EXPECT_EQ(buffers.Page(0).value().size(), kStorePageSize);
  EXPECT_EQ(buffers.Page(1).value(), "tail");
  EXPECT_FALSE(buffers.Page(2).ok());

  // Regions: typed, bounds- and size-checked.
  const Result<ColumnSpan<uint64_t>> span =
      buffers.Region<uint64_t>({0, 32}, 4);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span.value()[3], 4u);
  EXPECT_FALSE(buffers.Region<uint64_t>({0, 32}, 3).ok());  // size mismatch
  EXPECT_FALSE(buffers.Region<uint64_t>({4, 32}, 4).ok());  // misaligned
  EXPECT_FALSE(buffers.Bytes({kStorePageSize, 5}).ok());    // overruns file
  EXPECT_FALSE(
      buffers.Bytes({std::numeric_limits<uint64_t>::max(), 2}).ok());

  const BufferManager::Stats stats = buffers.stats();
  EXPECT_GE(stats.page_reads, 2u);
  EXPECT_GE(stats.region_reads, 1u);
}

// ------------------------------------------------------------------ sorter

Schema SorterSchema() {
  auto schema = Schema::Create({
      ColumnDef("k", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("s", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("d", ValueType::kDouble, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::vector<Row> RandomSorterRows(size_t n, uint64_t seed) {
  Random rng(seed);
  const char* const kStrings[] = {"alpha", "beta", "gamma", "delta"};
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    // Few distinct keys force duplicate-key ties, the stability probe.
    row.push_back(rng.Bernoulli(0.05) ? Value()
                                      : Value(rng.Uniform(0, 20)));
    row.push_back(rng.Bernoulli(0.05)
                      ? Value()
                      : Value(kStrings[rng.Uniform(0, 3)]));
    row.push_back(Value(rng.UniformReal(0, 1000)));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> DrainStream(const ExternalRowSorter& sorter) {
  Result<ExternalRowSorter::Stream> stream = sorter.OpenStream();
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  std::vector<Row> out;
  Row row;
  while (true) {
    const Result<bool> more = stream.value().Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) {
      break;
    }
    out.push_back(row);
  }
  return out;
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "row " << i;
    for (size_t c = 0; c < a[i].size(); ++c) {
      EXPECT_EQ(a[i][c].ToString(), b[i][c].ToString())
          << "row " << i << " col " << c;
    }
  }
}

TEST(StoreSorterTest, InputOrderPreservedWithoutSortColumns) {
  const ScratchDir scratch("sorter_order");
  SorterOptions options;
  options.temp_dir = scratch.Path("runs");
  options.memory_budget_bytes = 512;  // force many spills
  ExternalRowSorter sorter(SorterSchema(), options);
  const std::vector<Row> rows = RandomSorterRows(500, 7);
  for (const Row& row : rows) {
    ASSERT_TRUE(sorter.AddRow(row).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_GT(sorter.num_runs(), 3u) << "budget did not force spilling";
  ExpectRowsEqual(DrainStream(sorter), rows);
  // The stream is re-openable: the writer replays it twice.
  ExpectRowsEqual(DrainStream(sorter), rows);
  ASSERT_TRUE(sorter.Cleanup().ok());
  EXPECT_FALSE(fs::exists(scratch.Path("runs")));
}

TEST(StoreSorterTest, SortedMergeMatchesStableSort) {
  const ScratchDir scratch("sorter_sorted");
  SorterOptions options;
  options.temp_dir = scratch.Path("runs");
  options.memory_budget_bytes = 512;
  options.sort_columns = {0, 1};
  ExternalRowSorter sorter(SorterSchema(), options);
  const std::vector<Row> rows = RandomSorterRows(700, 8);
  for (const Row& row : rows) {
    ASSERT_TRUE(sorter.AddRow(row).ok());
  }
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_GT(sorter.num_runs(), 3u);

  std::vector<Row> expected = rows;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Row& a, const Row& b) {
                     if (const int cmp = a[0].Compare(b[0]); cmp != 0) {
                       return cmp < 0;
                     }
                     return a[1].Compare(b[1]) < 0;
                   });
  ExpectRowsEqual(DrainStream(sorter), expected);
}

TEST(StoreSorterTest, ArityMismatchIsError) {
  const ScratchDir scratch("sorter_arity");
  SorterOptions options;
  options.temp_dir = scratch.Path("runs");
  ExternalRowSorter sorter(SorterSchema(), options);
  EXPECT_FALSE(sorter.AddRow({Value(int64_t{1})}).ok());
}

// ------------------------------------------------- writer/store round trip

Schema HomesSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("score", ValueType::kDouble, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

std::vector<Row> HomesRows(size_t n, uint64_t seed) {
  Random rng(seed);
  const char* const kHoods[] = {"Ballard", "Fremont", "Queen Anne",
                                "Wallingford"};
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(rng.Bernoulli(0.1) ? Value()
                                     : Value(kHoods[rng.Uniform(0, 3)]));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value()
                      : Value(rng.Uniform(-100000, 900000)));
    if (rng.Bernoulli(0.05)) {
      row.push_back(Value(std::numeric_limits<double>::quiet_NaN()));
    } else if (rng.Bernoulli(0.1)) {
      row.push_back(Value());
    } else {
      row.push_back(Value(rng.UniformReal(-5, 5)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Builds a store at `path` holding `rows` under table `name`.
void BuildStore(const std::string& path, const std::string& name,
                const Schema& schema, const std::vector<Row>& rows,
                size_t budget = 1024) {
  StoreWriterOptions options;
  options.memory_budget_bytes = budget;
  Result<std::unique_ptr<StoreWriter>> writer =
      StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value()->BeginTable(name, schema).ok());
  for (const Row& row : rows) {
    ASSERT_TRUE(writer.value()->Append(row).ok());
  }
  ASSERT_TRUE(writer.value()->FinishTable().ok());
  const Status finish = writer.value()->Finish();
  ASSERT_TRUE(finish.ok()) << finish.ToString();
}

// Bit-exact cell comparison (doubles by representation, so NaN == NaN).
bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return false;
  }
  if (a.is_double()) {
    uint64_t ba = 0;
    uint64_t bb = 0;
    const double da = a.double_value();
    const double db = b.double_value();
    std::memcpy(&ba, &da, sizeof(ba));
    std::memcpy(&bb, &db, sizeof(bb));
    return ba == bb;
  }
  return a.ToString() == b.ToString();
}

void ExpectTableMatchesRows(const Table& table,
                            const std::vector<Row>& rows) {
  ASSERT_EQ(table.num_rows(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      ASSERT_TRUE(BitIdentical(table.CellValue(r, c), rows[r][c]))
          << "row " << r << " col " << c << ": "
          << table.CellValue(r, c).ToString() << " vs "
          << rows[r][c].ToString();
    }
  }
}

TEST(StoreRoundTripTest, SmallTableWithSpills) {
  const ScratchDir scratch("roundtrip");
  const std::string path = scratch.Path("homes.store");
  const Schema schema = HomesSchema();
  const std::vector<Row> rows = HomesRows(2000, 99);
  BuildStore(path, "homes", schema, rows);

  // Spill files and temp dir are gone after Finish.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().TableNames(),
            std::vector<std::string>{"homes"});
  Result<Table> table = store.value().OpenTable("homes");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_FALSE(table.value().has_rows());
  ExpectTableMatchesRows(table.value(), rows);

  EXPECT_FALSE(store.value().OpenTable("nope").ok());
}

TEST(StoreRoundTripTest, MultiSegmentTableAndZoneMetadata) {
  const ScratchDir scratch("multiseg");
  const std::string path = scratch.Path("big.store");
  auto schema_or = Schema::Create(
      {ColumnDef("v", ValueType::kInt64, ColumnKind::kNumeric)});
  ASSERT_TRUE(schema_or.ok());
  const size_t n = kSegmentRows + 1000;
  std::vector<Row> rows;
  rows.reserve(n);
  Random rng(5);
  int64_t min_seg2 = std::numeric_limits<int64_t>::max();
  int64_t max_seg2 = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = rng.Uniform(-1000000, 1000000);
    if (i >= kSegmentRows) {
      min_seg2 = std::min(min_seg2, v);
      max_seg2 = std::max(max_seg2, v);
    }
    rows.push_back({Value(v)});
  }
  BuildStore(path, "big", schema_or.value(), rows, 1 << 20);

  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const TableMeta& meta = store.value().catalog().tables[0];
  EXPECT_EQ(meta.num_rows, n);
  ASSERT_EQ(meta.columns.size(), 1u);
  ASSERT_EQ(meta.columns[0].segments.size(), 2u);
  EXPECT_EQ(meta.columns[0].segments[0].row_count, kSegmentRows);
  EXPECT_EQ(meta.columns[0].segments[1].row_count, 1000u);
  // Zone metadata: the second segment's min/max match the data.
  EXPECT_EQ(static_cast<int64_t>(meta.columns[0].segments[1].min_bits),
            min_seg2);
  EXPECT_EQ(static_cast<int64_t>(meta.columns[0].segments[1].max_bits),
            max_seg2);

  Result<Table> table = store.value().OpenTable("big");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ExpectTableMatchesRows(table.value(), rows);
}

TEST(StoreRoundTripTest, SortedWriterOrdersRows) {
  const ScratchDir scratch("sorted");
  const std::string path = scratch.Path("s.store");
  const Schema schema = HomesSchema();
  std::vector<Row> rows = HomesRows(800, 12);
  StoreWriterOptions options;
  options.memory_budget_bytes = 2048;
  options.sort_columns = {"price"};
  Result<std::unique_ptr<StoreWriter>> writer =
      StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->BeginTable("homes", schema).ok());
  for (const Row& row : rows) {
    ASSERT_TRUE(writer.value()->Append(row).ok());
  }
  ASSERT_TRUE(writer.value()->FinishTable().ok());
  ASSERT_TRUE(writer.value()->Finish().ok());

  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a[1].Compare(b[1]) < 0;
                   });
  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok());
  Result<Table> table = store.value().OpenTable("homes");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ExpectTableMatchesRows(table.value(), rows);
}

TEST(StoreRoundTripTest, AllNullAndEmptyTables) {
  const ScratchDir scratch("nulls");
  const std::string path = scratch.Path("n.store");
  const Schema schema = HomesSchema();
  std::vector<Row> all_null;
  for (int i = 0; i < 100; ++i) {
    all_null.push_back({Value(), Value(), Value()});
  }
  StoreWriterOptions options;
  Result<std::unique_ptr<StoreWriter>> writer =
      StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->BeginTable("all_null", schema).ok());
  for (const Row& row : all_null) {
    ASSERT_TRUE(writer.value()->Append(row).ok());
  }
  ASSERT_TRUE(writer.value()->FinishTable().ok());
  ASSERT_TRUE(writer.value()->BeginTable("empty", schema).ok());
  ASSERT_TRUE(writer.value()->FinishTable().ok());
  ASSERT_TRUE(writer.value()->Finish().ok());

  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Result<Table> nulls = store.value().OpenTable("all_null");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  ExpectTableMatchesRows(nulls.value(), all_null);
  Result<Table> empty = store.value().OpenTable("empty");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.value().num_rows(), 0u);
}

// OpenTable surfaces the persisted segment extrema as zone-map entries
// on the zero-copy columnar backing: per-zone row/valid counts are
// exact, extrema are the owning segment's min/max replicated across its
// zones (a sound superset), and has_nan comes from a per-zone scan.
TEST(StoreRoundTripTest, OpenTableSurfacesZoneMetadata) {
  const ScratchDir scratch("zones");
  const std::string path = scratch.Path("z.store");
  const Schema schema = HomesSchema();
  const size_t n = 3 * kZoneRows + 500;  // one segment, partial tail zone
  const std::vector<Row> rows = HomesRows(n, 23);
  BuildStore(path, "homes", schema, rows, 1 << 20);

  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Result<Table> table = store.value().OpenTable("homes");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::shared_ptr<const ColumnarTable>& shadow =
      table.value().columnar_backing();
  ASSERT_NE(shadow, nullptr);

  const TableMeta& meta = store.value().catalog().tables[0];
  const size_t num_zones = (n + kZoneRows - 1) / kZoneRows;
  for (size_t c = 0; c < shadow->num_columns(); ++c) {
    const ColumnarTable::Column& col = shadow->column(c);
    ASSERT_EQ(col.zones.size(), num_zones) << "col " << c;
    ASSERT_EQ(meta.columns[c].segments.size(), 1u) << "col " << c;
    const SegmentMeta& segment = meta.columns[c].segments[0];
    for (size_t z = 0; z < num_zones; ++z) {
      const size_t begin = z * kZoneRows;
      const size_t end = std::min(n, begin + kZoneRows);
      const ZoneEntry& zone = col.zones[z];
      EXPECT_EQ(zone.row_count, end - begin) << "col " << c << " zone "
                                             << z;
      uint32_t valid = 0;
      bool has_nan = false;
      for (size_t r = begin; r < end; ++r) {
        if (col.IsNull(r)) {
          continue;
        }
        ++valid;
        if (col.type == ValueType::kDouble && std::isnan(col.f64[r])) {
          has_nan = true;
        }
      }
      EXPECT_EQ(zone.valid_count, valid) << "col " << c << " zone " << z;
      EXPECT_EQ(zone.has_nan, has_nan) << "col " << c << " zone " << z;
      if (valid > 0) {
        // Segment extrema replicated: a superset claim, never tighter
        // than the segment and never absent.
        EXPECT_EQ(zone.min_bits, segment.min_bits)
            << "col " << c << " zone " << z;
        EXPECT_EQ(zone.max_bits, segment.max_bits)
            << "col " << c << " zone " << z;
      }
    }
  }
}

// A price-sorted store is value-clustered per segment, so a compiled
// predicate selecting only the top segment's range must rule every
// morsel of the lower segment all-fail — the store's zone surfacing has
// to deliver real pruning, not just satisfy the soundness contract.
TEST(StoreRoundTripTest, SortedStoreZonesPruneCompiledPredicates) {
  const ScratchDir scratch("prune");
  const std::string path = scratch.Path("p.store");
  const Schema schema = HomesSchema();
  const size_t n = kSegmentRows + 8192;  // 2 segments, 36 morsels
  std::vector<Row> rows = HomesRows(n, 29);
  StoreWriterOptions options;
  options.memory_budget_bytes = 1 << 22;
  options.sort_columns = {"price"};
  Result<std::unique_ptr<StoreWriter>> writer =
      StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value()->BeginTable("homes", schema).ok());
  for (const Row& row : rows) {
    ASSERT_TRUE(writer.value()->Append(row).ok());
  }
  ASSERT_TRUE(writer.value()->FinishTable().ok());
  ASSERT_TRUE(writer.value()->Finish().ok());

  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Result<Table> table = store.value().OpenTable("homes");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::shared_ptr<const ColumnarTable>& shadow =
      table.value().columnar_backing();
  ASSERT_NE(shadow, nullptr);
  const ColumnarTable::Column& price = shadow->column(1);

  // Threshold just above the first segment's maximum price: only rows of
  // the second segment can match, so the first segment's 32 morsels are
  // provably empty.
  int64_t seg1_max = std::numeric_limits<int64_t>::min();
  for (size_t r = 0; r < kSegmentRows; ++r) {
    if (!price.IsNull(r)) {
      seg1_max = std::max(seg1_max, static_cast<int64_t>(price.i64[r]));
    }
  }
  const int64_t threshold = seg1_max + 1;
  const std::string sql = "SELECT * FROM homes WHERE price >= " +
                          std::to_string(threshold);
  auto query = ParseQuery(sql);
  ASSERT_TRUE(query.ok());
  auto profile = SelectionProfile::FromQuery(query.value(), schema);
  ASSERT_TRUE(profile.ok());
  auto compiled =
      CompiledPredicate::CompileProfile(profile.value(), schema, shadow);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  std::vector<uint32_t> expected;
  for (size_t r = 0; r < n; ++r) {
    if (!price.IsNull(r) && price.i64[r] >= threshold) {
      expected.push_back(static_cast<uint32_t>(r));
    }
  }
  ASSERT_FALSE(expected.empty()) << "degenerate threshold";

  ParallelOptions sequential;
  sequential.threads = 1;
  Result<std::vector<uint32_t>> got = compiled.value().Filter(sequential);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), expected);

  using ZoneVerdict = CompiledPredicate::ZoneVerdict;
  size_t all_fail = 0;
  const size_t seg1_morsels = kSegmentRows / kZoneRows;  // 32
  for (size_t m = 0; m < compiled.value().num_morsels(); ++m) {
    const ZoneVerdict verdict = compiled.value().MorselVerdict(m);
    all_fail += verdict == ZoneVerdict::kAllFail ? 1 : 0;
    if (m < seg1_morsels) {
      EXPECT_EQ(verdict, ZoneVerdict::kAllFail) << "morsel " << m;
    }
  }
  EXPECT_GE(all_fail, seg1_morsels);
}

TEST(StoreRoundTripTest, NumericCoercionMatchesTableAppend) {
  const ScratchDir scratch("coerce");
  const std::string path = scratch.Path("c.store");
  const Schema schema = HomesSchema();
  StoreWriterOptions options;
  Result<std::unique_ptr<StoreWriter>> writer =
      StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->BeginTable("t", schema).ok());
  // Lossless coercion accepted (double 42.0 into int64 price, int64 3
  // into double score)...
  ASSERT_TRUE(
      writer.value()
          ->Append({Value("Ballard"), Value(42.0), Value(int64_t{3})})
          .ok());
  // ...lossy coercion and class mismatches rejected.
  EXPECT_FALSE(writer.value()
                   ->Append({Value("Ballard"), Value(1.5), Value(0.0)})
                   .ok());
  EXPECT_FALSE(writer.value()
                   ->Append({Value(int64_t{7}), Value(), Value()})
                   .ok());
  EXPECT_FALSE(writer.value()->Append({Value("x"), Value()}).ok());
  ASSERT_TRUE(writer.value()->FinishTable().ok());
  ASSERT_TRUE(writer.value()->Finish().ok());

  Result<SegmentStore> store = SegmentStore::Open(path);
  ASSERT_TRUE(store.ok());
  Result<Table> table = store.value().OpenTable("t");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table.value().num_rows(), 1u);
  EXPECT_EQ(table.value().CellValue(0, 1).int64_value(), 42);
  EXPECT_EQ(table.value().CellValue(0, 2).double_value(), 3.0);
}

TEST(StoreWriterTest, MisuseIsRejected) {
  const ScratchDir scratch("misuse");
  const std::string path = scratch.Path("m.store");
  const Schema schema = HomesSchema();
  StoreWriterOptions options;
  Result<std::unique_ptr<StoreWriter>> writer =
      StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  // Append/FinishTable before BeginTable.
  EXPECT_FALSE(writer.value()->Append({Value(), Value(), Value()}).ok());
  EXPECT_FALSE(writer.value()->FinishTable().ok());
  ASSERT_TRUE(writer.value()->BeginTable("t", schema).ok());
  // Nested BeginTable.
  EXPECT_FALSE(writer.value()->BeginTable("u", schema).ok());
  ASSERT_TRUE(writer.value()->FinishTable().ok());
  // Duplicate table name.
  EXPECT_FALSE(writer.value()->BeginTable("t", schema).ok());
  ASSERT_TRUE(writer.value()->Finish().ok());
  // Anything after Finish.
  EXPECT_FALSE(writer.value()->BeginTable("v", schema).ok());
  EXPECT_FALSE(writer.value()->Finish().ok());
}

TEST(StoreRoundTripTest, AttachStoreTablesIntoDatabase) {
  const ScratchDir scratch("attach");
  const std::string path = scratch.Path("db.store");
  const Schema schema = HomesSchema();
  const std::vector<Row> rows = HomesRows(300, 77);
  BuildStore(path, "homes", schema, rows);

  Database db;
  ASSERT_TRUE(AttachStoreTables(path, &db).ok());
  ASSERT_TRUE(db.HasTable("homes"));
  const Result<const Table*> table = db.GetTable("homes");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_rows(), rows.size());

  // A second attach collides on the name and must not modify db.
  const Status again = AttachStoreTables(path, &db);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(AttachStoreTables(path, nullptr).ok());
}

// ------------------------------------------------------- corrupt files

// Flips one byte at `offset` in the file at `path`.
void CorruptByte(const std::string& path, uint64_t offset) {
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xff);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

TEST(StoreCorruptionTest, HeaderDamageIsRejected) {
  const ScratchDir scratch("corrupt_hdr");
  const std::string path = scratch.Path("h.store");
  BuildStore(path, "homes", HomesSchema(), HomesRows(100, 1));

  // Magic byte.
  {
    const std::string copy = scratch.Path("magic.store");
    fs::copy_file(path, copy);
    CorruptByte(copy, 0);
    EXPECT_FALSE(SegmentStore::Open(copy).ok());
  }
  // Version field (directly after the 8-byte magic).
  {
    const std::string copy = scratch.Path("version.store");
    fs::copy_file(path, copy);
    CorruptByte(copy, 8);
    const Result<SegmentStore> store = SegmentStore::Open(copy);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.status().code(), StatusCode::kNotSupported);
  }
  // Truncated to half a page: too short for the header's catalog region.
  {
    const std::string copy = scratch.Path("trunc.store");
    fs::copy_file(path, copy);
    fs::resize_file(copy, kStorePageSize / 2);
    EXPECT_FALSE(SegmentStore::Open(copy).ok());
  }
}

TEST(StoreCorruptionTest, NoCatalogByteFlipEverCrashes) {
  // Flip every byte of the catalog region one at a time: each open must
  // either fail with a Status or produce a store whose tables still
  // open-validate — never crash or read out of bounds (the ASan/TSan CI
  // legs make this a memory-safety gate, not just an API contract).
  const ScratchDir scratch("corrupt_cat");
  const std::string path = scratch.Path("c.store");
  BuildStore(path, "homes", HomesSchema(), HomesRows(64, 3));
  const uint64_t file_size = fs::file_size(path);

  // The catalog is the page-aligned tail region; flipping every byte of
  // the last two pages covers it plus some column data.
  const uint64_t start =
      file_size > 2 * kStorePageSize ? file_size - 2 * kStorePageSize : 0;
  const std::string copy = scratch.Path("flip.store");
  for (uint64_t off = start; off < file_size; ++off) {
    fs::copy_file(path, copy,
                  fs::copy_options::overwrite_existing);
    CorruptByte(copy, off);
    Result<SegmentStore> store = SegmentStore::Open(copy);
    if (!store.ok()) {
      continue;
    }
    for (const std::string& name : store.value().TableNames()) {
      const Result<Table> table = store.value().OpenTable(name);
      if (table.ok()) {
        // A surviving open must still be readable end to end.
        Row scratch;
        for (size_t r = 0; r < table.value().num_rows(); ++r) {
          (void)table.value().RowRef(r, &scratch);
        }
      }
    }
  }
}

}  // namespace
}  // namespace autocat
