/// \file kernels.hpp
/// \brief Flat C-style SIMD kernels behind the candidate-scoring hot paths.
///
/// The batch evaluation engine spends nearly all of its time in a handful of
/// tight loops over 64-bit bitset blocks and the contiguous dy=1 target
/// column: masked popcounts (candidate coverage, per-group counts), fused
/// intersect+count, and masked target sums over `a & b` (subgroup means; a
/// materialized extension `e` is passed as `e & e`). This module
/// lifts those loops into a flat kernel family — in the style of gnumeric's
/// `range_*` functions — with two interchangeable implementations:
///
///   - a portable scalar implementation (always available), and
///   - an AVX2 implementation (x86-64, selected at runtime via CPUID).
///
/// ## Exact-equality contract
///
/// Every kernel produces *bit-identical* results across implementations, so
/// dispatch can never leak into mining output:
///
///   - Integer kernels (popcounts, intersect/union) are trivially exact.
///   - Floating-point kernels follow one fixed accumulation structure, the
///     *lane contract*, that both implementations honor literally:
///       * a 64-row block is processed as 16 groups of 4 lanes; group `g`
///         covers bits `4g..4g+3` of the block's mask word;
///       * there are four 4-lane accumulators; group `g` accumulates into
///         accumulator `g & 3`, lane-wise;
///       * a set lane contributes its value through the *subtraction form*:
///         with `x = bits(v) & lanemask` and `nx = bits(-v) & lanemask`, the
///         sum accumulator takes `acc - nx` and the squares accumulator
///         `acc - (nx * x)`. A masked-off lane yields `nx = x = +0.0`, and
///         `acc - (+0.0)` is the bitwise *identity* for every IEEE double
///         (including `-0.0`, which plain `acc + 0.0` would flip). Masked
///         lanes are therefore unobservable, which makes the contract
///         *skip-invariant*: an implementation may skip all-zero blocks or
///         groups — or process them branchlessly — without changing a bit
///         of the result;
///       * the final reduction is `s[j] = (a0[j]+a1[j]) + (a2[j]+a3[j])`
///         lane-wise, then `(s[0]+s[2]) + (s[1]+s[3])`;
///       * squares are computed as one IEEE multiply then subtracted (both
///         translation units are built with `-ffp-contract=off` so the
///         compiler cannot fuse a multiply-add on one side only).
///     Since IEEE-754 operations are deterministic, identical operation
///     order implies identical bits. `kernel_parity_test` enforces this
///     differentially, including ±0.0 and denormal inputs.
///
/// Inside a block, both implementations are branchless in the mask data
/// (no per-group skip tests; the only data-dependent branches left are one
/// whole-block zero skip and the partial final block): candidate masks in
/// the batch engine change every item, so per-group branches mispredict
/// roughly once per group and cost far more than the work they skip
/// (measured ~3.5× on the candidate-eval hot loop vs the same kernel's
/// steady-state microbenchmark).
///
/// ## Preconditions
///
/// Mask words must have their tail bits (past the universe size) zeroed —
/// `pattern::Extension` maintains exactly this invariant (and checks it with
/// `SISD_DCHECK` on every mutation). `values` must hold one double per row,
/// 64 per block, except the final block which may be partial: every block
/// but the last is read at full width regardless of its mask, while in the
/// last block rows whose mask bit is clear are never read.
///
/// ## Dispatch policy
///
/// The active implementation is resolved once, on first use: the
/// `SISD_KERNELS` environment variable (`scalar` or `avx2`) wins; otherwise
/// AVX2 is used when the CPU supports it, scalar else. Requesting `avx2` on
/// hardware without it falls back to scalar with a warning on stderr. Tests
/// may re-pin the choice with `SetActiveIsaForTesting`.

#ifndef SISD_KERNELS_KERNELS_HPP_
#define SISD_KERNELS_KERNELS_HPP_

#include <cstddef>
#include <cstdint>

namespace sisd::kernels {

/// \brief Result of the fused count+sum+sum-of-squares kernel.
struct MaskedMoments {
  size_t count = 0;        ///< popcount of the combined mask
  double sum = 0.0;        ///< sum of selected values (lane contract)
  double sum_squares = 0.0;  ///< sum of squared selected values
};

/// \brief One implementation of the kernel family (function-pointer table).
///
/// All functions take block counts, not row counts: `num_blocks` 64-bit mask
/// words cover `64 * num_blocks` rows (the caller guarantees masked tails).
struct KernelTable {
  const char* name;  ///< "scalar" or "avx2"

  /// Popcount of `a & b` over `num_blocks` words.
  size_t (*count_and2)(const uint64_t* a, const uint64_t* b,
                       size_t num_blocks);
  /// Popcount of `a & b & c` over `num_blocks` words (three-way fused).
  size_t (*count_and3)(const uint64_t* a, const uint64_t* b,
                       const uint64_t* c, size_t num_blocks);
  /// `out[i] = a[i] & b[i]`; returns the popcount of the result.
  size_t (*and_into)(const uint64_t* a, const uint64_t* b, uint64_t* out,
                     size_t num_blocks);
  /// `out[i] = a[i] | b[i]`; returns the popcount of the result.
  size_t (*or_into)(const uint64_t* a, const uint64_t* b, uint64_t* out,
                    size_t num_blocks);
  /// Sum of `values[i]` over rows of `a & b` (lane contract). A caller
  /// holding one materialized mask `m` passes `(m, m)`: `m & m = m`.
  double (*masked_sum_and)(const double* values, const uint64_t* a,
                           const uint64_t* b, size_t num_blocks);
  /// Fused count + sum + sum-of-squares over rows of `a & b`, accumulators
  /// kept in registers. `sum` is bit-identical to `masked_sum_and`.
  MaskedMoments (*masked_moments_and)(const double* values, const uint64_t* a,
                                      const uint64_t* b, size_t num_blocks);
};

/// \brief Implementation selector.
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable ISA name ("scalar" / "avx2").
const char* IsaName(Isa isa);

/// True when the running CPU supports AVX2 (and the library was compiled
/// with an AVX2-capable compiler).
bool CpuSupportsAvx2();

/// The always-available portable implementation.
const KernelTable& ScalarKernels();

/// The AVX2 implementation, or nullptr when unavailable (non-x86 build or
/// compiler without `-mavx2`). Callers must still gate on
/// `CpuSupportsAvx2()` before executing it.
const KernelTable* Avx2KernelsOrNull();

/// The implementation the process dispatched to (env override + CPUID).
Isa ActiveIsa();

/// The active kernel table (resolved once, lock-free afterwards).
const KernelTable& Active();

/// Re-pins the active implementation. Test-only: the production choice is
/// made once at first use and kept for the process lifetime. Dies when the
/// requested ISA is unavailable on this host.
void SetActiveIsaForTesting(Isa isa);

/// \name Dispatched convenience wrappers
/// @{
inline size_t CountAnd2(const uint64_t* a, const uint64_t* b,
                        size_t num_blocks) {
  return Active().count_and2(a, b, num_blocks);
}
inline size_t CountAnd3(const uint64_t* a, const uint64_t* b,
                        const uint64_t* c, size_t num_blocks) {
  return Active().count_and3(a, b, c, num_blocks);
}
inline size_t AndInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                      size_t num_blocks) {
  return Active().and_into(a, b, out, num_blocks);
}
inline size_t OrInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                     size_t num_blocks) {
  return Active().or_into(a, b, out, num_blocks);
}
inline double MaskedSumAnd(const double* values, const uint64_t* a,
                           const uint64_t* b, size_t num_blocks) {
  return Active().masked_sum_and(values, a, b, num_blocks);
}
inline MaskedMoments MaskedMomentsAnd(const double* values, const uint64_t* a,
                                      const uint64_t* b, size_t num_blocks) {
  return Active().masked_moments_and(values, a, b, num_blocks);
}
/// @}

}  // namespace sisd::kernels

#endif  // SISD_KERNELS_KERNELS_HPP_
