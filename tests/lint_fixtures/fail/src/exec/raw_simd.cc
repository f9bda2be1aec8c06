// Fixture: raw vector intrinsics, which the raw-simd rule allows nowhere.
// Exactly four raw-simd violations — the suppressed line and the
// prefixed lookalikes must not count.

#include <immintrin.h>

void Vectorize(const long* vals, unsigned long* bits) {
  __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals));
  __m256d y = _mm256_setzero_pd();
  x = _mm256_add_epi64(x, x);
  (void)x;
  (void)y;
  // Suppressed: does not count.
  bits[0] = _mm256_movemask_pd(y);  // autocat-lint: allow(raw-simd)
}

void Lookalikes() {
  // Prefixed identifiers and helper names are fine.
  int x__m256 = 0;
  (void)x__m256;
  my_mm256_helper(x__m256);
  // __m256i inside a comment or string never counts: "_mm256_add_epi64(".
}
