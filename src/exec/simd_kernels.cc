// The one TU allowed to spell SIMD intrinsics (lint rule `raw-simd`).
// Built with -mavx2 on x86-64; every entry point re-checks CPU support at
// runtime, so linking this TU into a binary that runs on a non-AVX2
// machine is safe — the kernels just report unavailable and the scalar
// loops in exec/kernels.cc take over. On other architectures the AVX2
// block compiles out and the stubs below always decline.
//
// Bitmask layout: 4-lane double compares emit their verdicts via
// movemask into 4 bits, accumulated 16 iterations per output word;
// 8-lane code gathers emit 8 bits, 8 iterations per word. Tails shorter
// than a word run the exact scalar expression into the final word, so a
// partial morsel still produces fully-defined bits.

#include "exec/simd_kernels.h"

#include <atomic>

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64))
#define AUTOCAT_SIMD_AVX2 1
#include <immintrin.h>
#else
#define AUTOCAT_SIMD_AVX2 0
#endif

namespace autocat {
namespace simd {

namespace {

// atomic-order: relaxed — a test-only toggle read at kernel entry;
// nothing is published through it (tests flip it between queries).
std::atomic<bool> g_force_scalar{false};

}  // namespace

bool Enabled() {
#if AUTOCAT_SIMD_AVX2
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported && !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void ForceScalarForTest(bool force_scalar) {
  g_force_scalar.store(force_scalar, std::memory_order_relaxed);
}

#if AUTOCAT_SIMD_AVX2

namespace {

// All-ones / all-zero lane mask from a scalar condition.
__m256d BoolMaskD(bool b) {
  return _mm256_castsi256_pd(_mm256_set1_epi64x(b ? -1 : 0));
}

}  // namespace

bool AcceptCodes(const uint32_t* codes, size_t n, const uint32_t* accept,
                 size_t accept_size, uint64_t* bits) {
  if (!Enabled() ||
      accept_size > static_cast<size_t>(INT32_MAX)) {
    // The gather indexes as signed int32; oversized tables (impossible
    // for real dictionaries, but the contract should not depend on that)
    // fall back to the scalar lookup.
    return false;
  }
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  const size_t words = n >> 6;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = 0;
    for (int k = 0; k < 8; ++k, i += 8) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes + i));
      const __m256i v = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(accept), idx, 4);
      const __m256i nz = _mm256_cmpgt_epi32(v, zero);  // entries are 0/1
      const auto m = static_cast<uint64_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(nz)));
      word |= m << (k * 8);
    }
    bits[w] = word;
  }
  if (i < n) {
    uint64_t word = 0;
    for (size_t r = i; r < n; ++r) {
      word |= static_cast<uint64_t>(accept[codes[r]] != 0) << (r - i);
    }
    bits[words] = word;
  }
  return true;
}

bool RangeF64(const double* vals, size_t n, double lo, bool lo_inclusive,
              double hi, bool hi_inclusive, uint64_t* bits) {
  if (!Enabled()) {
    return false;
  }
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d excl_lo = BoolMaskD(!lo_inclusive);
  const __m256d excl_hi = BoolMaskD(!hi_inclusive);
  size_t i = 0;
  const size_t words = n >> 6;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = 0;
    for (int k = 0; k < 16; ++k, i += 4) {
      const __m256d x = _mm256_loadu_pd(vals + i);
      // out_lo = (x < lo) | ((x == lo) & !lo_inclusive); OQ predicates
      // leave NaN lanes false on both sides, so NaN is inside every
      // range — the scalar expression's behavior.
      const __m256d out_lo = _mm256_or_pd(
          _mm256_cmp_pd(x, vlo, _CMP_LT_OQ),
          _mm256_and_pd(_mm256_cmp_pd(x, vlo, _CMP_EQ_OQ), excl_lo));
      const __m256d out_hi = _mm256_or_pd(
          _mm256_cmp_pd(x, vhi, _CMP_GT_OQ),
          _mm256_and_pd(_mm256_cmp_pd(x, vhi, _CMP_EQ_OQ), excl_hi));
      const auto out = static_cast<uint64_t>(
          _mm256_movemask_pd(_mm256_or_pd(out_lo, out_hi)));
      word |= (~out & 0xf) << (k * 4);
    }
    bits[w] = word;
  }
  if (i < n) {
    uint64_t word = 0;
    for (size_t r = i; r < n; ++r) {
      const double x = vals[r];
      const bool out_lo = (x < lo) || ((x == lo) && !lo_inclusive);
      const bool out_hi = (x > hi) || ((x == hi) && !hi_inclusive);
      word |= static_cast<uint64_t>(!(out_lo || out_hi)) << (r - i);
    }
    bits[words] = word;
  }
  return true;
}

#else  // !AUTOCAT_SIMD_AVX2

bool AcceptCodes(const uint32_t*, size_t, const uint32_t*, size_t,
                 uint64_t*) {
  return false;
}
bool RangeF64(const double*, size_t, double, bool, double, bool,
              uint64_t*) {
  return false;
}

#endif  // AUTOCAT_SIMD_AVX2

}  // namespace simd
}  // namespace autocat
