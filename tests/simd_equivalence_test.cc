// SIMD-vs-scalar equivalence gate for the AVX2 filter kernels
// (exec/simd_kernels.h, DESIGN.md §15).
//
// Every vector kernel promises bit-for-bit equality with the scalar
// predicate it mirrors — NaN semantics, signed zeros, int64 extremes, and
// NULL masking included. These tests compare the kernels directly against
// scalar references over hostile arrays with ragged lengths, then force
// the scalar fallback (simd::ForceScalarForTest) and replay the SQL fuzz
// corpus plus randomized queries and profiles through both configurations
// at threads {1, 2, 7, 16}: selections and result tables must be
// bit-identical. On machines without AVX2 both sides run scalar and the
// gate degenerates to a no-op rather than failing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "exec/simd_kernels.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

using namespace equiv;  // NOLINT

const size_t kThreadCounts[] = {1, 2, 7, 16};

// Restores runtime SIMD detection on scope exit, so a failing assertion
// cannot leak the forced-scalar state into later tests.
struct ScalarForceGuard {
  explicit ScalarForceGuard(bool force) {
    simd::ForceScalarForTest(force);
  }
  ~ScalarForceGuard() { simd::ForceScalarForTest(false); }
};

// ------------------------------------------------------- kernel unit tests

// Scalar mirror of Value::Compare's numeric three-way: NaN compares equal
// to everything (all orderings false).
int Cmp3(double a, double b) {
  return static_cast<int>(a > b) - static_cast<int>(a < b);
}
int Cmp3(int64_t a, int64_t b) {
  return static_cast<int>(a > b) - static_cast<int>(a < b);
}

bool BitAt(const std::vector<uint64_t>& bits, size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

// Lengths that exercise empty input, single lanes, word boundaries, the
// vector/tail split, and a full morsel.
const size_t kLengths[] = {0, 1, 3, 63, 64, 65, 100, 255, 256, 1000, 2048};

TEST(SimdKernelTest, CompareI64MatchesScalar) {
  if (!simd::Enabled()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar fallback covers this build";
  }
  Random rng(11);
  const int64_t hostile[] = {0, -1, 1,
                             std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max(),
                             int64_t{9007199254740993}};
  for (const size_t n : kLengths) {
    std::vector<int64_t> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = i % 7 == 0 ? hostile[i / 7 % 6]
                           : rng.Uniform(-1000000, 1000000);
    }
    for (const int64_t b : {int64_t{0}, int64_t{42},
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()}) {
      for (uint8_t table = 0; table < 8; ++table) {
        std::vector<uint64_t> bits((n + 63) / 64 + 1, ~uint64_t{0});
        ASSERT_TRUE(
            simd::CompareI64(vals.data(), n, b, table, bits.data()));
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(BitAt(bits, i),
                    ((table >> (Cmp3(vals[i], b) + 1)) & 1) != 0)
              << "n=" << n << " b=" << b << " table=" << int(table)
              << " i=" << i;
        }
        // Trailing bits of the last word are zeroed.
        for (size_t i = n; i < ((n + 63) / 64) * 64; ++i) {
          ASSERT_FALSE(BitAt(bits, i)) << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, CompareF64MatchesScalar) {
  if (!simd::Enabled()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar fallback covers this build";
  }
  Random rng(13);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double hostile[] = {0.0, -0.0, nan,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            1e-300};
  for (const size_t n : kLengths) {
    std::vector<double> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = i % 5 == 0 ? hostile[i / 5 % 6]
                           : rng.UniformReal(-1e6, 1e6);
    }
    for (const double b : {0.0, -0.0, 42.5, nan}) {
      for (uint8_t table = 0; table < 8; ++table) {
        std::vector<uint64_t> bits((n + 63) / 64 + 1, ~uint64_t{0});
        ASSERT_TRUE(
            simd::CompareF64(vals.data(), n, b, table, bits.data()));
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(BitAt(bits, i),
                    ((table >> (Cmp3(vals[i], b) + 1)) & 1) != 0)
              << "n=" << n << " b=" << b << " table=" << int(table)
              << " i=" << i;
        }
        for (size_t i = n; i < ((n + 63) / 64) * 64; ++i) {
          ASSERT_FALSE(BitAt(bits, i)) << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, AcceptCodesMatchesScalar) {
  if (!simd::Enabled()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar fallback covers this build";
  }
  Random rng(17);
  for (const size_t dict_size : {size_t{1}, size_t{2}, size_t{17},
                                 size_t{256}}) {
    std::vector<uint32_t> accept(dict_size);
    for (auto& a : accept) {
      a = rng.Bernoulli(0.4) ? 1 : 0;
    }
    for (const size_t n : kLengths) {
      std::vector<uint32_t> codes(n);
      for (size_t i = 0; i < n; ++i) {
        codes[i] = static_cast<uint32_t>(
            rng.Uniform(0, static_cast<int64_t>(dict_size) - 1));
      }
      std::vector<uint64_t> bits((n + 63) / 64 + 1, ~uint64_t{0});
      ASSERT_TRUE(simd::AcceptCodes(codes.data(), n, accept.data(),
                                    dict_size, bits.data()));
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(BitAt(bits, i), accept[codes[i]] != 0)
            << "dict=" << dict_size << " n=" << n << " i=" << i;
      }
      for (size_t i = n; i < ((n + 63) / 64) * 64; ++i) {
        ASSERT_FALSE(BitAt(bits, i)) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, RangeF64MatchesScalar) {
  if (!simd::Enabled()) {
    GTEST_SKIP() << "AVX2 unavailable; scalar fallback covers this build";
  }
  Random rng(19);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double hostile[] = {0.0, -0.0, nan, inf, -inf, 100.0};
  for (const size_t n : kLengths) {
    std::vector<double> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = i % 5 == 0 ? hostile[i / 5 % 6]
                           : rng.UniformReal(-500, 500);
    }
    const struct {
      double lo, hi;
    } ranges[] = {{-100.0, 100.0}, {0.0, 0.0}, {-0.0, 0.0},
                  {-inf, inf},     {nan, 100.0}};
    for (const auto& range : ranges) {
      for (const bool lo_inc : {false, true}) {
        for (const bool hi_inc : {false, true}) {
          std::vector<uint64_t> bits((n + 63) / 64 + 1, ~uint64_t{0});
          ASSERT_TRUE(simd::RangeF64(vals.data(), n, range.lo, lo_inc,
                                     range.hi, hi_inc, bits.data()));
          for (size_t i = 0; i < n; ++i) {
            const double v = vals[i];
            // NaN cells (and NaN bounds) are inside: every ordered
            // comparison below is false.
            const bool out_lo =
                v < range.lo || (v == range.lo && !lo_inc);
            const bool out_hi =
                v > range.hi || (v == range.hi && !hi_inc);
            ASSERT_EQ(BitAt(bits, i), !out_lo && !out_hi)
                << "n=" << n << " lo=" << range.lo << " hi=" << range.hi
                << " i=" << i;
          }
          for (size_t i = n; i < ((n + 63) / 64) * 64; ++i) {
            ASSERT_FALSE(BitAt(bits, i)) << "n=" << n << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, ForceScalarDisablesKernels) {
  const bool had_simd = simd::Enabled();
  {
    ScalarForceGuard guard(true);
    EXPECT_FALSE(simd::Enabled());
    int64_t vals[4] = {1, 2, 3, 4};
    uint64_t bits[1] = {0};
    EXPECT_FALSE(simd::CompareI64(vals, 4, 2, 0b010, bits));
  }
  EXPECT_EQ(simd::Enabled(), had_simd);
}

// ---------------------------------------------- end-to-end SIMD vs scalar

// Runs `sql` through the columnar engine twice — SIMD allowed, then
// forced-scalar — at the given thread count; results must be
// bit-identical tables (or the same error Status).
void ExpectSimdScalarIdentical(const Database& db, const std::string& sql,
                               size_t threads) {
  ExecOptions opts;
  opts.parallel.threads = threads;
  const Result<Table> simd_result = ExecuteSql(sql, db, opts);
  ScalarForceGuard guard(true);
  const Result<Table> scalar_result = ExecuteSql(sql, db, opts);
  ASSERT_EQ(simd_result.ok(), scalar_result.ok())
      << sql << " (threads=" << threads << ")";
  if (!simd_result.ok()) {
    EXPECT_EQ(simd_result.status().ToString(),
              scalar_result.status().ToString())
        << sql;
    return;
  }
  ExpectTablesBitIdentical(simd_result.value(), scalar_result.value(),
                           sql + " (threads=" + std::to_string(threads) +
                               ", simd-vs-scalar)");
}

Database HomesDb(Table table) {
  Database db;
  EXPECT_TRUE(db.RegisterTable("homes", std::move(table)).ok());
  return db;
}

TEST(SimdEquivalenceTest, FuzzCorpusSimdVsScalar) {
  // 6000 rows = 3 morsels: multiple bitmap words per morsel plus a
  // partial tail, so the kernels' vector/tail split is on the line.
  const Database db = HomesDb(MakeHomes(6000, 101, 0.08, true));
  const std::filesystem::path corpus(AUTOCAT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string sql((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    for (const size_t threads : kThreadCounts) {
      ExpectSimdScalarIdentical(db, sql, threads);
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "corpus directory looks truncated";
}

TEST(SimdEquivalenceTest, RandomizedQueriesSimdVsScalar) {
  const Schema schema = FuzzSchema();
  const Database db = HomesDb(MakeHomes(6000, 202, 0.1, true));
  Random rng(31337);
  for (int i = 0; i < 400; ++i) {
    const std::string sql = RandomQuery(rng, schema);
    for (const size_t threads : kThreadCounts) {
      ExpectSimdScalarIdentical(db, sql, threads);
    }
  }
}

// Profile compilation reaches kernel shapes SQL cannot (half-open range
// conditions, value sets): pin Filter's selection vector across the two
// configurations there too.
TEST(SimdEquivalenceTest, ProfileFiltersSimdVsScalar) {
  const Schema schema = FuzzSchema();
  const Table table = MakeHomes(6000, 404, 0.1, true);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));

  Random rng(555);
  size_t compiled_profiles = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string sql = RandomQuery(rng, schema);
    auto query = ParseQuery(sql);
    if (!query.ok()) {
      continue;
    }
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    if (!profile.ok()) {
      continue;
    }
    auto compiled =
        CompiledPredicate::CompileProfile(profile.value(), schema, shadow);
    ASSERT_TRUE(compiled.ok()) << sql << ": " << compiled.status().ToString();
    ++compiled_profiles;
    for (const size_t threads : kThreadCounts) {
      ParallelOptions parallel;
      parallel.threads = threads;
      AUTOCAT_ASSERT_OK_AND_MOVE(std::vector<uint32_t> with_simd,
                                 compiled.value().Filter(parallel));
      std::vector<uint32_t> scalar;
      {
        ScalarForceGuard guard(true);
        AUTOCAT_ASSERT_OK_AND_MOVE(scalar,
                                   compiled.value().Filter(parallel));
      }
      EXPECT_EQ(with_simd, scalar)
          << sql << " (threads=" << threads << ")";
    }
  }
  EXPECT_GE(compiled_profiles, 30u)
      << "too few queries normalized to a profile to be a meaningful gate";
}

}  // namespace
}  // namespace autocat
