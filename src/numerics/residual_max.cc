#include "numerics/residual_max.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "numerics/simd_support.h"

namespace mfg::numerics {
namespace {

constexpr std::size_t kChains = 8;

// The chains travel as four two-double GCC vectors: a width every clone
// supports natively (SSE2 at baseline, VEX xmm under AVX2/AVX-512), so
// each chain update is one packed compare-select in a register. Written
// out because the auto-vectorizer either keeps a chains[8] array on the
// stack (a store-to-load round trip per block) or, fully unrolled, leaves
// the chains scalar.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));
using PairBits = std::int64_t __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kPairs = kChains / 2;

inline Pair LoadPair(const double* src) {
  Pair out = {};
  std::memcpy(&out, src, sizeof out);
  return out;
}

// std::max(acc, x) verbatim: keeps `acc` when x is NaN.
inline double MaxKeep(double acc, double x) { return acc < x ? x : acc; }

// std::max(acc, std::fabs(x)) per element: the magnitude clears the sign
// bit (−0.0 becomes +0.0), and the select keeps `acc` on NaN.
inline Pair MaxAbsKeep(Pair acc, Pair x) {
  const Pair magnitude = (Pair)((PairBits)x & ~(std::int64_t{1} << 63));
  return acc < magnitude ? magnitude : acc;
}

// kAgainstPrevious selects |v − v_prev| over |v| for the value residual.
// always_inline so each ISA clone of the dispatchers below compiles the
// body with its own instruction set (see simd_support.h).
template <bool kAgainstPrevious>
__attribute__((always_inline)) inline RelaxResiduals RelaxImpl(
    std::size_t n, double gamma, double* p, double* h, const double* v,
    const double* v_prev) {
  const double keep = 1.0 - gamma;
  Pair policy_chains[kPairs] = {};
  Pair value_chains[kPairs] = {};
  std::size_t k = 0;
  for (; k + kChains <= n; k += kChains) {
#pragma GCC unroll 4
    for (std::size_t j = 0; j < kPairs; ++j) {
      const std::size_t at = k + 2 * j;
      const Pair old = LoadPair(p + at);
      const Pair updated = keep * old + gamma * LoadPair(h + at);
      policy_chains[j] = MaxAbsKeep(policy_chains[j], updated - old);
      std::memcpy(p + at, &updated, sizeof updated);
      std::memcpy(h + at, &updated, sizeof updated);
      const Pair dv = kAgainstPrevious
                          ? LoadPair(v + at) - LoadPair(v_prev + at)
                          : LoadPair(v + at);
      value_chains[j] = MaxAbsKeep(value_chains[j], dv);
    }
  }
  RelaxResiduals out;  // Both start at +0.0, like every chain.
  for (std::size_t j = 0; j < kChains; ++j) {
    out.policy_change =
        MaxKeep(out.policy_change, policy_chains[j / 2][j % 2]);
    out.value_change = MaxKeep(out.value_change, value_chains[j / 2][j % 2]);
  }
  for (; k < n; ++k) {
    const double old = p[k];
    const double updated = keep * old + gamma * h[k];
    out.policy_change = MaxKeep(out.policy_change, std::fabs(updated - old));
    p[k] = updated;
    h[k] = updated;
    const double dv = kAgainstPrevious ? v[k] - v_prev[k] : v[k];
    out.value_change = MaxKeep(out.value_change, std::fabs(dv));
  }
  return out;
}

MFGCP_BATCH_TARGET_CLONES
RelaxResiduals RelaxAgainstPrevious(std::size_t n, double gamma, double* p,
                                    double* h, const double* v,
                                    const double* v_prev) {
  return RelaxImpl<true>(n, gamma, p, h, v, v_prev);
}

MFGCP_BATCH_TARGET_CLONES
RelaxResiduals RelaxAgainstZero(std::size_t n, double gamma, double* p,
                                double* h, const double* v) {
  return RelaxImpl<false>(n, gamma, p, h, v, nullptr);
}

}  // namespace

RelaxResiduals RelaxAndMeasureResiduals(double gamma, std::span<double> policy,
                                        std::span<double> best_response,
                                        std::span<const double> value,
                                        std::span<const double> prev_value) {
  const std::size_t n = policy.size();
  if (prev_value.size() == value.size()) {
    return RelaxAgainstPrevious(n, gamma, policy.data(), best_response.data(),
                                value.data(), prev_value.data());
  }
  return RelaxAgainstZero(n, gamma, policy.data(), best_response.data(),
                          value.data());
}

}  // namespace mfg::numerics
