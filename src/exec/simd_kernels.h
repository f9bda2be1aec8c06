#ifndef AUTOCAT_EXEC_SIMD_KERNELS_H_
#define AUTOCAT_EXEC_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace autocat {
namespace simd {

/// AVX2 inner loops for two of the profile filter leaves in
/// exec/kernels.cc: the dictionary-code accept table (string value sets)
/// and the range test over doubles (double ranges). The other leaves,
/// int64 ranges and numeric value sets, stay scalar. This header is
/// intrinsic-free by design: the `raw-simd` lint rule confines
/// immintrin.h and every `_mm*` spelling to src/exec/simd_kernels.cc, the
/// one TU built with -mavx2, so vector code cannot leak into TUs whose
/// codegen flags would make it illegal on a baseline machine.
///
/// Every kernel writes one verdict BIT per row into `bits` — row i lands
/// in bits[i >> 6] at bit (i & 63), null handling excluded (the caller
/// ANDs with the column's null bitmap) — and is bit-for-bit equal to the
/// scalar predicate it mirrors, NaN semantics included (gated by the
/// SIMD-vs-scalar equivalence suite). Each returns false without touching
/// `bits` when the vector path is unavailable (CPU lacks AVX2, the build
/// lacks the TU, or tests forced the scalar fallback); the caller then
/// runs its scalar loop. `bits` must hold ceil(n / 64) words; trailing
/// bits of the last word are zeroed.

/// True when the AVX2 kernels are compiled in, the CPU supports them, and
/// no test override is active.
bool Enabled();

/// Test hook: force every kernel to report unavailable (the scalar
/// fallback path), or restore runtime detection. Not thread-safe against
/// concurrent kernel execution — flip it only between queries.
void ForceScalarForTest(bool force_scalar);

/// Dictionary-code accept table: bit i = accept[codes[i]] != 0. `accept`
/// must have `accept_size` entries, each 0 or 1 (a uint32 copy of the
/// compiled uint8 table, widened once at compile time so the gather reads
/// full lanes), and every code must index in range (the open/build paths
/// validate codes against the dictionary).
bool AcceptCodes(const uint32_t* codes, size_t n, const uint32_t* accept,
                 size_t accept_size, uint64_t* bits);

/// Profile-range test over doubles: bit i = `vals[i]` inside
/// [lo, hi] with the given endpoint inclusivity, where NaN cells are
/// inside every range — the literal vector translation of
/// CompileCondition's out_lo/out_hi arithmetic.
bool RangeF64(const double* vals, size_t n, double lo, bool lo_inclusive,
              double hi, bool hi_inclusive, uint64_t* bits);

}  // namespace simd
}  // namespace autocat

#endif  // AUTOCAT_EXEC_SIMD_KERNELS_H_
