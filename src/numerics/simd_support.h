#ifndef MFGCP_NUMERICS_SIMD_SUPPORT_H_
#define MFGCP_NUMERICS_SIMD_SUPPORT_H_

// SIMD support for the batched kernels.
//
// The batched kernels rely on auto-vectorization of unit-stride lane loops
// and lane packs (numerics/lane_vector.h). Configuring with -DMFGCP_SIMD=ON
// defines MFGCP_SIMD_ENABLED=1, which turns the runtime ISA dispatch below
// off (every kernel then runs its baseline SSE2 build). The project also
// forces -ffp-contract=off: the bit-identity contracts
// (solver_equivalence_test, batch_equivalence_test) forbid fused
// multiply-add contraction, which any FMA-capable target would otherwise
// introduce.

#ifndef MFGCP_SIMD_ENABLED
#define MFGCP_SIMD_ENABLED 0
#endif

// Runtime ISA dispatch for the auto-vectorized batch kernels. The project
// targets baseline x86-64 (SSE2, two doubles per vector); annotating a hot
// kernel with MFGCP_BATCH_TARGET_CLONES compiles it three times — baseline,
// AVX2 (four lanes), AVX-512F (eight lanes) — and GCC's ifunc resolver picks
// the widest one the CPU supports at load time. No -march flag, so the
// binary stays runnable on any x86-64.
//
// Bit-identity survives the wider clones for two reasons: the lane loops do
// element-wise IEEE arithmetic only (vector width never changes a result,
// lane l sees the same operation sequence at any width), and the top-level
// CMakeLists forces -ffp-contract=off project-wide so the AVX-512 clone —
// whose ISA embeds fused multiply-add — cannot contract a*b+c into one
// rounding where the baseline clone rounds twice.
//
// The macro is empty under MFGCP_SIMD, off x86-64/GCC (target_clones +
// ifunc is a GCC/glibc mechanism), and under ThreadSanitizer: GCC defines
// __SANITIZE_THREAD__ for -fsanitize=thread, and an ifunc resolver runs at
// relocation time, before the TSan runtime is initialized, so a TSan binary
// with clones crashes before main. TSan builds run the baseline
// kernels, which the bit-identity contract makes equivalent.
#if !MFGCP_SIMD_ENABLED && defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define MFGCP_BATCH_TARGET_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define MFGCP_BATCH_TARGET_CLONES
#endif

#include <bit>
#include <cstdint>

namespace mfg::numerics {

// Bit-exact masked-lane select: returns `a`'s bits when mask is nonzero
// (including NaN masks) and `b`'s bits untouched otherwise. The solvers'
// substep loops assign `field[k] = LaneSelect(update[l], updated, field[k])`
// instead of a ternary on the store: GCC classifies `x = c ? y : x` as a
// conditional store, which only the AVX-512 clone can vectorize (masked
// stores); the integer blend always stores, so every clone if-converts it
// to compare + and/or. Never multiply-by-mask — a NaN in the masked-out
// operand must not leak into the kept lane.
inline double LaneSelect(double mask, double a, double b) {
  const std::uint64_t keep_a = mask != 0.0 ? ~std::uint64_t{0} : 0;
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & keep_a) |
                               (std::bit_cast<std::uint64_t>(b) & ~keep_a));
}

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_SIMD_SUPPORT_H_
