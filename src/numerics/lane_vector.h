#ifndef MFGCP_NUMERICS_LANE_VECTOR_H_
#define MFGCP_NUMERICS_LANE_VECTOR_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "numerics/simd_support.h"

// Fixed-width lane packs for batched kernels that carry running state
// across rows — quadrature sums, residual maxima, divergence latches.
//
// Written as `double acc[M]` arrays, such state stays on the stack even
// when the lane loop vectorizes, and every row pays a store-to-load round
// trip on the carried chain. A LaneVector<M> (a GCC vector of M doubles,
// M = 1/2/4/8) lives in registers instead: one zmm at M = 8 in the
// AVX-512 clone, two ymm in the AVX2 clone, four xmm at baseline — the
// same code under every MFGCP_BATCH_TARGET_CLONES target. LaneVector<1> is
// a plain double, so a kernel written once over packs runs any lane count
// by splitting it into 8/4/2/1-lane chunks (ForEachLaneChunk).
//
// Bit-identity: pack arithmetic is element-wise IEEE (the scalar
// expression per lane, -ffp-contract=off keeps two roundings), and the
// helpers below reproduce numerics::LaneSelect, std::fabs and std::max
// lane by lane, including their NaN and signed-zero behaviour.
//
// Packs only ever pass between always-inlined functions; the top-level
// CMakeLists turns off GCC's -Wpsabi note that wide vector arguments'
// calling convention depends on the ISA, which concerns no real call.

namespace mfg::numerics {

template <std::size_t M>
struct LaneVectorTraits;

template <>
struct LaneVectorTraits<1> {
  using Vector = double;
};
template <>
struct LaneVectorTraits<2> {
  typedef double Vector __attribute__((vector_size(2 * sizeof(double))));
  typedef std::int64_t Bits __attribute__((vector_size(2 * sizeof(double))));
};
template <>
struct LaneVectorTraits<4> {
  typedef double Vector __attribute__((vector_size(4 * sizeof(double))));
  typedef std::int64_t Bits __attribute__((vector_size(4 * sizeof(double))));
};
template <>
struct LaneVectorTraits<8> {
  typedef double Vector __attribute__((vector_size(8 * sizeof(double))));
  typedef std::int64_t Bits __attribute__((vector_size(8 * sizeof(double))));
};

template <std::size_t M>
using LaneVector = typename LaneVectorTraits<M>::Vector;


// M consecutive lanes starting at p (unaligned).
template <std::size_t M>
__attribute__((always_inline)) inline LaneVector<M> LoadLanes(
    const double* p) {
  LaneVector<M> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <std::size_t M>
__attribute__((always_inline)) inline void StoreLanes(double* p,
                                                      LaneVector<M> v) {
  std::memcpy(p, &v, sizeof v);
}

// numerics::LaneSelect per lane: a's bits where mask != 0 (NaN included),
// b's bits untouched elsewhere.
template <std::size_t M>
__attribute__((always_inline)) inline LaneVector<M> SelectLanes(
    LaneVector<M> mask, LaneVector<M> a, LaneVector<M> b) {
  if constexpr (M == 1) {
    // A scalar pick returns one operand's bits untouched, like LaneSelect;
    // outside an auto-vectorized loop it compiles to a predictable branch
    // or cmov instead of LaneSelect's integer round trip.
    return mask != 0.0 ? a : b;
  } else {
    using Bits = typename LaneVectorTraits<M>::Bits;
    const Bits keep = mask != 0.0;
    return (LaneVector<M>)(((Bits)a & keep) | ((Bits)b & ~keep));
  }
}

// 1.0 in the lanes where a > b, +0.0 elsewhere (NaN compares false): a
// select mask for SelectLanes. Built from the comparison's bits, since
// GCC 12 fails to compile some vector `a > b ? one : zero` forms.
template <std::size_t M>
__attribute__((always_inline)) inline LaneVector<M> GreaterLanes(
    LaneVector<M> a, LaneVector<M> b) {
  if constexpr (M == 1) {
    return a > b ? 1.0 : 0.0;
  } else {
    using Bits = typename LaneVectorTraits<M>::Bits;
    const LaneVector<M> one = LaneVector<M>{} + 1.0;
    return (LaneVector<M>)((a > b) & (Bits)one);
  }
}

// std::fabs per lane (clears the sign bit, NaN payloads kept).
template <std::size_t M>
__attribute__((always_inline)) inline LaneVector<M> AbsLanes(
    LaneVector<M> x) {
  if constexpr (M == 1) {
    return std::fabs(x);
  } else {
    using Bits = typename LaneVectorTraits<M>::Bits;
    return (LaneVector<M>)((Bits)x & ~(std::int64_t{1} << 63));
  }
}

// std::max(acc, x) per lane: `acc < x ? x : acc`, so a NaN x keeps acc.
template <std::size_t M>
__attribute__((always_inline)) inline LaneVector<M> MaxKeepLanes(
    LaneVector<M> acc, LaneVector<M> x) {
  return acc < x ? x : acc;
}

// Calls body.template operator()<W>(l0) for consecutive chunks [l0, l0+W)
// covering lanes [0, m), W ∈ {8, 4, 2, 1}, widest first: one call at the
// default batch width 8, and every other width still runs in packs.
template <typename Body>
__attribute__((always_inline)) inline void ForEachLaneChunk(std::size_t m,
                                                            Body&& body) {
  std::size_t l0 = 0;
  for (; l0 + 8 <= m; l0 += 8) body.template operator()<8>(l0);
  if (l0 + 4 <= m) {
    body.template operator()<4>(l0);
    l0 += 4;
  }
  if (l0 + 2 <= m) {
    body.template operator()<2>(l0);
    l0 += 2;
  }
  if (l0 < m) body.template operator()<1>(l0);
}

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_LANE_VECTOR_H_
