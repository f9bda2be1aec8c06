// SIMD-vs-scalar equivalence gate for the AVX2 filter kernels
// (exec/simd_kernels.h, DESIGN.md §15).
//
// Every vector kernel promises bit-for-bit equality with the scalar
// predicate it mirrors — NaN semantics, signed zeros, int64 extremes, and
// NULL masking included. These tests compare the kernels directly against
// scalar references over hostile arrays with ragged lengths, then force
// the scalar fallback (simd::ForceScalarForTest) and run the selection
// profiles of the SQL fuzz corpus and of randomized queries through both
// configurations at threads {1, 2, 7, 16}: selections must be
// bit-identical. On machines without AVX2 both sides run scalar and the
// gate degenerates to a no-op rather than failing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
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

bool BitAt(const std::vector<uint64_t>& bits, size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

// Lengths that exercise empty input, single lanes, word boundaries, the
// vector/tail split, and a full morsel.
const size_t kLengths[] = {0, 1, 3, 63, 64, 65, 100, 255, 256, 1000, 2048};

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
    const double vals[4] = {1, 2, 3, 4};
    uint64_t bits[1] = {0};
    EXPECT_FALSE(simd::RangeF64(vals, 4, 2, true, 3, true, bits));
  }
  EXPECT_EQ(simd::Enabled(), had_simd);
}

// ---------------------------------------------- end-to-end SIMD vs scalar

// Compiles `profile` against `shadow` and runs Filter twice — SIMD
// allowed, then forced-scalar — at every thread count; the selections must
// be identical.
void ExpectProfileSimdScalarIdentical(
    const SelectionProfile& profile, const Schema& schema,
    const std::shared_ptr<const ColumnarTable>& shadow,
    const std::string& context) {
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const CompiledPredicate compiled,
      CompiledPredicate::CompileProfile(profile, schema, shadow));
  for (const size_t threads : kThreadCounts) {
    ParallelOptions parallel;
    parallel.threads = threads;
    AUTOCAT_ASSERT_OK_AND_MOVE(std::vector<uint32_t> with_simd,
                               compiled.Filter(parallel));
    std::vector<uint32_t> scalar;
    {
      ScalarForceGuard guard(true);
      AUTOCAT_ASSERT_OK_AND_MOVE(scalar, compiled.Filter(parallel));
    }
    EXPECT_EQ(with_simd, scalar)
        << context << " (threads=" << threads << ")";
  }
}

// The selection profile of `sql`, or nullopt when it does not parse or
// normalize to one (a profile refuses e.g. cross-attribute ORs, NOT IN
// and IS NULL with kNotSupported).
std::optional<SelectionProfile> ProfileOf(const std::string& sql,
                                          const Schema& schema) {
  auto query = ParseQuery(sql);
  if (!query.ok()) {
    return std::nullopt;
  }
  auto profile = SelectionProfile::FromQuery(query.value(), schema);
  if (!profile.ok()) {
    return std::nullopt;
  }
  return std::move(profile).value();
}

// 6000 rows = 3 morsels: multiple bitmap words per morsel plus a partial
// tail, so the kernels' vector/tail split is on the line.
std::shared_ptr<const ColumnarTable> HomesShadow(uint64_t seed) {
  return std::make_shared<const ColumnarTable>(
      ColumnarTable::Build(MakeHomes(6000, seed, 0.1, true)));
}

TEST(SimdEquivalenceTest, FuzzCorpusSimdVsScalar) {
  const Schema schema = FuzzSchema();
  const auto shadow = HomesShadow(101);
  const std::filesystem::path corpus(AUTOCAT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  size_t replayed = 0;
  size_t profiles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string sql((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    ++replayed;
    if (const auto profile = ProfileOf(sql, schema)) {
      ++profiles;
      ExpectProfileSimdScalarIdentical(*profile, schema, shadow, sql);
    }
  }
  EXPECT_GE(replayed, 10u) << "corpus directory looks truncated";
  EXPECT_GE(profiles, 1u) << "no corpus query normalized to a profile";
}

TEST(SimdEquivalenceTest, RandomizedQueriesSimdVsScalar) {
  const Schema schema = FuzzSchema();
  const auto shadow = HomesShadow(202);
  Random rng(31337);
  size_t profiles = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string sql = RandomQuery(rng, schema);
    if (const auto profile = ProfileOf(sql, schema)) {
      ++profiles;
      ExpectProfileSimdScalarIdentical(*profile, schema, shadow, sql);
    }
  }
  EXPECT_GE(profiles, 50u)
      << "too few queries normalized to a profile to be a meaningful gate";
}

// Profiles built directly, aimed at the two vector kernels: double ranges
// with hostile bounds (NaN, signed zeros, infinities) and random
// inclusivity over NaN and signed-zero cells (RangeF64), alone or
// conjoined with a string value set (AcceptCodes).
TEST(SimdEquivalenceTest, ProfileFiltersSimdVsScalar) {
  const Schema schema = FuzzSchema();
  const auto shadow = HomesShadow(404);
  const double inf = std::numeric_limits<double>::infinity();
  const double bounds[] = {std::numeric_limits<double>::quiet_NaN(),
                           -inf,
                           -0.0,
                           0.0,
                           100000.0,
                           250000.0,
                           500000.0,
                           inf};
  Random rng(555);
  for (int i = 0; i < 200; ++i) {
    NumericRange range;
    range.lo = bounds[rng.Uniform(0, 7)];
    range.hi = bounds[rng.Uniform(0, 7)];
    range.lo_inclusive = rng.Bernoulli(0.5);
    range.hi_inclusive = rng.Bernoulli(0.5);
    SelectionProfile profile;
    profile.Set(rng.Bernoulli(0.5) ? "price" : "squarefootage",
                AttributeCondition::Range(range));
    if (rng.Bernoulli(0.5)) {
      std::set<Value> names;
      for (int64_t k = rng.Uniform(1, 3); k > 0; --k) {
        names.insert(Value(kNeighborhoods[rng.Uniform(0, 5)]));
      }
      profile.Set("neighborhood",
                  AttributeCondition::ValueSet(std::move(names)));
    }
    ExpectProfileSimdScalarIdentical(profile, schema, shadow,
                                     profile.ToString());
  }
}

}  // namespace
}  // namespace autocat
