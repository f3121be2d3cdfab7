#include "core/hjb_batch.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "numerics/finite_difference.h"
#include "numerics/lane_vector.h"
#include "numerics/simd_support.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// econ::SmoothHeaviside::operator() verbatim — the lane tables must carry
// the same bits econ::CaseModel::Evaluate produces.
inline double Logistic(double sharpness, double x) {
  const double z = 2.0 * sharpness * x;
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// {Logistic(sharpness, x), Logistic(sharpness, −x)} from one std::exp.
// Both branches of Logistic take e = exp(−|z|): with z = 2·s·x, the side
// with z ≥ 0 is 1/(1 + e) and the other e/(1 + e). The per-node fold's
// arguments peer − αQ and αQ − peer are exact negatives (IEEE rounding is
// sign-symmetric, and so is the 2·s multiply), so the pair reproduces the
// two separate calls bit-for-bit; at z = ±0 both sides are 0.5 on either
// branch.
inline void LogisticPair(double sharpness, double x, double& at_x,
                         double& at_neg_x) {
  const double z = 2.0 * sharpness * x;
  const double e = std::exp(-std::fabs(z));
  const double upper = 1.0 / (1.0 + e);
  const double lower = e / (1.0 + e);
  at_x = z >= 0.0 ? upper : lower;
  at_neg_x = z >= 0.0 ? lower : upper;
}

// common::ClampUnit (min(max(x, 0), 1)) per lane: std::max(x, 0) is
// `x < 0 ? 0 : x` and std::min(low, 1) is `1 < low ? 1 : low`, so NaN and
// signed-zero operands take the same branches.
template <std::size_t W>
__attribute__((always_inline)) inline numerics::LaneVector<W> ClampUnitLanes(
    numerics::LaneVector<W> x) {
  const numerics::LaneVector<W> zero{};
  const numerics::LaneVector<W> one = zero + 1.0;
  const numerics::LaneVector<W> low = x < zero ? zero : x;  // std::max.
  return one < low ? one : low;                             // std::min.
}

// Rows of HjbBatchSolver::Workspace::lane, the per-lane scratch table.
// The sharing toggle is pre-folded into three factors so the node loop
// carries no branch: p2 = fq·p2_factor, p3 = fq·fpeer_gt + fq·p2_extra,
// and the sharing cost multiplies gated_share_price. Each gated factor is
// 0.0 on the disabled side, and every gated multiplicand is finite and
// non-negative, so the products reproduce both branches' bits.
enum LaneRow : std::size_t {
  kP2Factor,         // sharing ? f(αQ − peer_n) : 0.
  kFpeerGt,          // f(peer_n − αQ).
  kP2Extra,          // sharing ? 0 : f(αQ − peer_n).
  kGatedSharePrice,  // sharing ? sharing_price : 0.
  kShareN,           // sharing ? sharing benefit : 0.
  kServedPeer,       // max(Q − peer_n, 0).
  kNumRequests,
  kPrice,
  kPeer,
  // The per-substep value-update mask and the divergence latch, kept as
  // doubles (0.0 / nonzero), the form SelectLanes and the latch take.
  kUpdate,
  kBad,
  // Coupled mode's shared dt_sub, one copy per lane for the fused substep.
  kCoupledDtSub,
  kLaneRows,
};

// The per-node lane kernels below are the profile of the whole backward
// sweep. Each runs over lane packs (numerics/lane_vector.h): the lanes are
// split into 8/4/2/1-lane chunks (ForEachLaneChunk), and a chunk's per-lane
// constants and carried rows live in LaneVector registers while the node
// loop streams the [node][lane] tables. Packs vectorize at every lane width
// in every ISA clone; written as `for (lane)` loops instead, the narrow
// widths were fully unrolled before vectorization and the selects in the
// unrolled body (the clamp, the upwind pick) compiled to scalar branches.
// They are free functions taking plain pointers: a member std::vector read
// in a loop that also stores doubles forces a reload of the vector's data
// pointer every row, since the store might alias the vector header.
// MFGCP_BATCH_TARGET_CLONES adds AVX2/AVX-512 clones behind a runtime
// dispatch; -ffp-contract=off (forced project-wide) keeps every clone on
// the same two-rounding multiply-add bits, whatever the lane width.

// Every control-independent utility term for every (node, lane) — trading
// income, sharing benefit, η₂·request-service delay, sharing cost —
// folded into the single per-node constant `based`, once per time node,
// for lanes [l0, l0 + W). The sharing branch is pre-folded into
// p2_factor/p2_extra/gated_share_price (see LaneRow); p3 = fq·fgt +
// fq·extra reproduces both branches of econ::CaseModel's sharing toggle
// bit-for-bit because the gated term is exactly +0.0 on the disabled side.
template <std::size_t W>
__attribute__((always_inline)) inline void FoldControlIndependentTermsImpl(
    std::size_t nq, std::size_t m, std::size_t l0, const double* p1d,
    const double* fqd, const double* sod, const double* qpd,
    const double* qcd, const double* lane, const double* content_size,
    const double* inv_edge, const double* inv_ond, const double* eta2,
    double* __restrict based) {
  using numerics::LoadLanes;
  using Pack = numerics::LaneVector<W>;
  auto row_of = [&](LaneRow row) __attribute__((always_inline)) {
    return LoadLanes<W>(lane + row * m + l0);
  };
  const Pack p2_factor = row_of(kP2Factor);
  const Pack fpeer_gt = row_of(kFpeerGt);
  const Pack p2_extra = row_of(kP2Extra);
  const Pack gated_share_price = row_of(kGatedSharePrice);
  const Pack share_n = row_of(kShareN);
  const Pack served_peer = row_of(kServedPeer);
  const Pack num_requests = row_of(kNumRequests);
  const Pack price = row_of(kPrice);
  const Pack peer = row_of(kPeer);
  const Pack cs = LoadLanes<W>(content_size + l0);
  const Pack i_edge = LoadLanes<W>(inv_edge + l0);
  const Pack i_ond = LoadLanes<W>(inv_ond + l0);
  const Pack eta = LoadLanes<W>(eta2 + l0);
  const Pack zero{};
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t at = i * m + l0;
    const Pack p1 = LoadLanes<W>(p1d + at);
    const Pack fq = LoadLanes<W>(fqd + at);
    const Pack so = LoadLanes<W>(sod + at);
    const Pack p2 = fq * p2_factor;
    const Pack p3 = fq * fpeer_gt + fq * p2_extra;
    // econ::TradingIncome with the lane tables substituted.
    const Pack expected_data = p1 * so + p2 * served_peer + p3 * cs;
    const Pack trading = num_requests * price * expected_data;
    const Pack per_request =
        p1 * so * i_edge + p2 * served_peer * i_edge +
        p3 * (LoadLanes<W>(qpd + at) * i_ond + cs * i_edge);
    const Pack rest_delay = num_requests * per_request;
    // econ::SharingCost(sharing_price, p2, q, peer); std::max(t, 0).
    const Pack t = LoadLanes<W>(qcd + at) - peer;
    const Pack transferred = t < zero ? zero : t;
    const Pack sharing_cost = p2 * gated_share_price * transferred;
    numerics::StoreLanes<W>(
        based + at, trading + share_n - eta * rest_delay - sharing_cost);
  }
}

MFGCP_BATCH_TARGET_CLONES
void FoldControlIndependentTerms(std::size_t nq, std::size_t m,
                                 const double* p1d, const double* fqd,
                                 const double* sod, const double* qpd,
                                 const double* qcd, const double* lane,
                                 const double* content_size,
                                 const double* inv_edge, const double* inv_ond,
                                 const double* eta2, double* __restrict based) {
  numerics::ForEachLaneChunk(
      m, [&]<std::size_t W>(std::size_t l0) __attribute__((always_inline)) {
        FoldControlIndependentTermsImpl<W>(nq, m, l0, p1d, fqd, sod, qpd, qcd,
                                           lane, content_size, inv_edge,
                                           inv_ond, eta2, based);
      });
}

// One whole CFL substep for lanes [l0, l0 + W) — gradient, Theorem-1
// control, drift, upwind gradient, second derivative and the masked Euler
// update — as a single pass over the value surface. The separate-kernel
// formulation walks the (nq × lanes) arrays five times per substep and
// spills every intermediate (dv, x*, drift, upwind velocity, d2v) to
// memory; at nq = 161 the working set overflows L1 and the sweep is bound
// by those redundant passes, not by arithmetic. Fused, each row is read
// once, every intermediate lives in registers, and the only streamed
// arrays are v (read+write) and the three per-node tables (avail, cs_nw,
// base).
//
// Each element's result depends only on the PREVIOUS substep's value
// surface and on per-element expressions: the three-row rotation
// (vm/vi/vp = old v[i−1], v[i], v[i+1], in registers) guarantees the
// stencils read pre-update values even though v[i] is overwritten in the
// same pass. With h = dx:
//
//   dv       = (v[i+1] − v[i−1])·(1/2h) inside, (v[1] − v[0])·(1/h) and
//              (v[n−1] − v[n−2])·(1/h) at the two ends
//   x        = clamp(−(w4 + a·(k1 + k2·dv))/2w5)   (Theorem 1)
//   drift    = cs_nw·x − cs_rd
//   dvu      = upwind difference on the backward-time transport velocity
//              −drift: (−drift > 0 ? v[i] − v[i−1] : v[i+1] − v[i])·(1/h)
//              inside; at the ends both branches are the one-sided dv
//   d²v      = (v[i+1] − 2·v[i] + v[i−1])·(1/h²) inside; each end copies
//              its adjacent interior row (d2_1 for row 0, d2_{n−2} for
//              row n−1: zero-curvature extrapolation)
//   v       += dt_sub·(drift·dvu + D·d²v + base − w4·x − w5·x² −
//              k_delay·x·a)                      (masked by select)
//
// kFixedControl reads x from `control` (row n of the caller's policy
// field) instead of Theorem 1; the gradient then goes unused and compiles
// away.
//
// always_inline: the body must be inlined into every ISA clone of the
// dispatcher below so the packs compile at that clone's width; an
// out-of-line instantiation would be compiled once at baseline SSE2.
template <std::size_t W, bool kFixedControl>
__attribute__((always_inline)) inline void FusedSubstepImpl(
    std::size_t nq, std::size_t m, std::size_t l0, const double* avd,
    const double* csnw, const double* based, const double* inv_dx,
    const double* inv_2dx, const double* inv_dx2, const double* w4,
    const double* w5, const double* inv_2w5, const double* opt_k1,
    const double* opt_k2, const double* cs_rd, const double* k_delay,
    const double* diffusion, const double* dt_sub, const double* update,
    const double* control, double* __restrict vd) {
  using numerics::LoadLanes;
  using Pack = numerics::LaneVector<W>;
  const Pack i_dx = LoadLanes<W>(inv_dx + l0);
  const Pack i_2dx = LoadLanes<W>(inv_2dx + l0);
  const Pack i_dx2 = LoadLanes<W>(inv_dx2 + l0);
  const Pack w4_l = LoadLanes<W>(w4 + l0);
  const Pack w5_l = LoadLanes<W>(w5 + l0);
  const Pack i_2w5 = LoadLanes<W>(inv_2w5 + l0);
  const Pack k1 = LoadLanes<W>(opt_k1 + l0);
  const Pack k2 = LoadLanes<W>(opt_k2 + l0);
  const Pack rd = LoadLanes<W>(cs_rd + l0);
  const Pack kdel = LoadLanes<W>(k_delay + l0);
  const Pack diff = LoadLanes<W>(diffusion + l0);
  const Pack dts = LoadLanes<W>(dt_sub + l0);
  const Pack upd = LoadLanes<W>(update + l0);
  const Pack zero{};
  // Node `at`'s Euler update from its gradient dv, upwind difference dvu
  // and second difference d2, all on old values; `old` is v[i].
  auto step = [&](std::size_t at, Pack dv, Pack old, Pack d2,
                  auto upwind) __attribute__((always_inline)) {
    const Pack a = LoadLanes<W>(avd + at);
    Pack x;
    if constexpr (kFixedControl) {
      x = LoadLanes<W>(control + at);
    } else {
      const Pack numerator = w4_l + a * (k1 + k2 * dv);
      x = ClampUnitLanes<W>(-numerator * i_2w5);
    }
    const Pack drift = LoadLanes<W>(csnw + at) * x - rd;
    const Pack dvu = upwind(drift);
    const Pack placement = w4_l * x + w5_l * x * x;
    const Pack utility = LoadLanes<W>(based + at) - placement - kdel * x * a;
    const Pack hamiltonian = drift * dvu + diff * d2 + utility;
    const Pack updated = old + dts * hamiltonian;
    numerics::StoreLanes<W>(vd + at,
                            numerics::SelectLanes<W>(upd, updated, old));
  };

  Pack vm = LoadLanes<W>(vd + l0);
  Pack vi = LoadLanes<W>(vd + m + l0);
  Pack vp = LoadLanes<W>(vd + 2 * m + l0);

  // Row 0: one-sided gradient; the upwind branches coincide on the same
  // difference; d²v copies interior row 1 (computed from old rows 0..2).
  Pack d2_prev = (vp - 2.0 * vi + vm) * i_dx2;
  {
    const Pack one_sided = (vi - vm) * i_dx;
    step(l0, one_sided, vm, d2_prev,
         [&](Pack) __attribute__((always_inline)) { return one_sided; });
  }

  for (std::size_t i = 1; i + 1 < nq; ++i) {
    const Pack d2 = (vp - 2.0 * vi + vm) * i_dx2;
    // Upwind on the backward-time transport velocity −drift (in τ = T − t
    // the equation transports V at −drift): the difference is selected
    // first, then scaled by the shared 1/h.
    step(i * m + l0, (vp - vm) * i_2dx, vi, d2,
         [&](Pack drift) __attribute__((always_inline)) {
           return (-drift > zero ? vi - vm : vp - vi) * i_dx;
         });
    d2_prev = d2;
    if (i + 2 < nq) {
      vm = vi;
      vi = vp;
      vp = LoadLanes<W>(vd + (i + 2) * m + l0);
    }
  }

  // Row n−1: one-sided gradient (coinciding upwind branches) and the
  // carried interior d²v row, on old values vi = v[n−2], vp = v[n−1].
  {
    const Pack one_sided = (vp - vi) * i_dx;
    step((nq - 1) * m + l0, one_sided, vp, d2_prev,
         [&](Pack) __attribute__((always_inline)) { return one_sided; });
  }
}

// Runtime dispatch to lane packs, in fixed-control mode when `control`
// (the caller's policy row for this output node) is non-null. The ISA
// clones hang off this dispatcher; the always-inlined pack bodies inherit
// each clone's target, so an 8-lane pack is one 64-byte vector in the
// avx512f clone.
MFGCP_BATCH_TARGET_CLONES
void FusedHjbSubstep(std::size_t nq, std::size_t m, const double* avd,
                     const double* csnw, const double* based,
                     const double* inv_dx, const double* inv_2dx,
                     const double* inv_dx2, const double* w4,
                     const double* w5, const double* inv_2w5,
                     const double* opt_k1, const double* opt_k2,
                     const double* cs_rd, const double* k_delay,
                     const double* diffusion, const double* dt_sub,
                     const double* update, const double* control,
                     double* __restrict vd) {
  numerics::ForEachLaneChunk(
      m, [&]<std::size_t W>(std::size_t l0) __attribute__((always_inline)) {
        if (control == nullptr) {
          FusedSubstepImpl<W, false>(nq, m, l0, avd, csnw, based, inv_dx,
                                     inv_2dx, inv_dx2, w4, w5, inv_2w5, opt_k1,
                                     opt_k2, cs_rd, k_delay, diffusion, dt_sub,
                                     update, control, vd);
        } else {
          FusedSubstepImpl<W, true>(nq, m, l0, avd, csnw, based, inv_dx,
                                    inv_2dx, inv_dx2, w4, w5, inv_2w5, opt_k1,
                                    opt_k2, cs_rd, k_delay, diffusion, dt_sub,
                                    update, control, vd);
        }
      });
}

// Coupled mode's cross-lane pass (HjbBatchSolver::Fields::coupled): the
// lane axis's terms of the Hamiltonian on the pre-substep surface v, times
// dt_sub, into `incr`. The upwind drift[l]·∂_l V differences on the side
// the backward-time velocity −drift[l] comes from (one-sided at the end
// lanes); diffusion·∂²_ll V is central, each end lane copying its inner
// neighbour's curvature (zero-curvature extrapolation). Added after the
// fused q-substep, it completes the unsplit explicit step up to summation
// order. Plain loops: the 2-D model is not on the planner's path.
void CoupledHjbTerms(std::size_t nq, std::size_t m,
                     const numerics::LaneAxis& axis, const double* v,
                     double* __restrict incr) {
  const double dx = axis.dx;
  for (std::size_t i = 0; i < nq; ++i) {
    const double* row = v + i * m;
    for (std::size_t l = 0; l < m; ++l) {
      const double backward = l > 0 ? row[l] - row[l - 1] : row[1] - row[0];
      const double forward =
          l + 1 < m ? row[l + 1] - row[l] : row[l] - row[l - 1];
      const double upwind = (-axis.drift[l] > 0.0 ? backward : forward) / dx;
      const std::size_t c = std::clamp<std::size_t>(l, 1, m - 2);
      const double curvature =
          (row[c + 1] - 2.0 * row[c] + row[c - 1]) / (dx * dx);
      incr[i * m + l] =
          axis.dt_sub * (axis.drift[l] * upwind + axis.diffusion * curvature);
    }
  }
}

// What each output node's tail writes besides the value row and the
// divergence latch (HjbBatchSolver::Fields selects it): the Theorem-1
// policy, Alg. 2's relaxed policy, or nothing (fixed-control mode).
enum class NodeTail { kOptimal, kRelaxed, kValueOnly };

// The per-output-node tail for lanes [l0, l0 + W), as one pass over the
// value surface: the gradient (the fused substep's stencil — one-sided
// (v[1] − v[0])/h and (v[n−1] − v[n−2])/h at the ends, central
// (v[i+1] − v[i−1])/2h inside), the Theorem-1 policy from it (the fused
// substep's control expression), and the non-finite latch bad[l] += v − v
// (+0.0 for every finite v, NaN for ±inf/NaN, so a lane pre-filled with
// 0.0 stays exactly 0.0 iff its column is all-finite; the build never
// enables -ffinite-math-only). The node's value and policy rows land in
// the [node][lane] rows `value_row` / `policy_row` of the caller's
// [time][node][lane] fields.
//
// kRelaxed folds Alg. 2's relaxed update into the same pass: the policy
// row holds the previous iterate p, replaced by p' = (1 − γ)·p + γ·x* (the
// learners' expression, verbatim), and the value row holds the previous
// surface; max|p' − p| and max|V − V_prev| fold into policy_change[l] and
// value_change[l]. Both maxima are exact in any order: every operand is a
// magnitude (never −0.0) and MaxKeepLanes keeps the accumulator on NaN.
// The latch and both maxima stay in LaneVector registers across the node.
// kValueOnly writes the value row and the latch alone.
template <std::size_t W, NodeTail kTail>
__attribute__((always_inline)) inline void EmitNodeImpl(
    std::size_t nq, std::size_t m, std::size_t l0, const double* vd,
    const double* avd, const double* w4, const double* inv_2w5,
    const double* opt_k1, const double* opt_k2, const double* inv_dx,
    const double* inv_2dx, const double* gamma, double* __restrict value_row,
    double* __restrict policy_row, double* __restrict bad,
    double* __restrict policy_change, double* __restrict value_change) {
  using numerics::LoadLanes;
  using numerics::StoreLanes;
  using Pack = numerics::LaneVector<W>;
  constexpr bool kRelax = kTail == NodeTail::kRelaxed;
  const Pack w4_l = LoadLanes<W>(w4 + l0);
  const Pack inv_2w5_l = LoadLanes<W>(inv_2w5 + l0);
  const Pack k1 = LoadLanes<W>(opt_k1 + l0);
  const Pack k2 = LoadLanes<W>(opt_k2 + l0);
  const Pack one_sided = LoadLanes<W>(inv_dx + l0);
  const Pack central = LoadLanes<W>(inv_2dx + l0);
  Pack latch = LoadLanes<W>(bad + l0);
  Pack gamma_l{};
  Pack dp{};
  Pack dv_max{};
  if constexpr (kRelax) {
    gamma_l = LoadLanes<W>(gamma + l0);
    dp = LoadLanes<W>(policy_change + l0);
    dv_max = LoadLanes<W>(value_change + l0);
  }
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t row = i * m + l0;
    const Pack v = LoadLanes<W>(vd + row);
    latch += v - v;
    if constexpr (kTail != NodeTail::kValueOnly) {
      // Row i's stencil ends (one-sided at the boundaries).
      const std::size_t hi = (i + 1 < nq ? i + 1 : i) * m + l0;
      const std::size_t lo = (i > 0 ? i - 1 : i) * m + l0;
      const Pack inv = (i > 0 && i + 1 < nq) ? central : one_sided;
      const Pack dv = (LoadLanes<W>(vd + hi) - LoadLanes<W>(vd + lo)) * inv;
      const Pack numerator = w4_l + LoadLanes<W>(avd + row) * (k1 + k2 * dv);
      const Pack x = ClampUnitLanes<W>(-numerator * inv_2w5_l);
      if constexpr (kRelax) {
        const Pack old = LoadLanes<W>(policy_row + row);
        const Pack updated = (1.0 - gamma_l) * old + gamma_l * x;
        dp = numerics::MaxKeepLanes<W>(dp,
                                       numerics::AbsLanes<W>(updated - old));
        dv_max = numerics::MaxKeepLanes<W>(
            dv_max, numerics::AbsLanes<W>(v - LoadLanes<W>(value_row + row)));
        StoreLanes<W>(policy_row + row, updated);
      } else {
        StoreLanes<W>(policy_row + row, x);
      }
    }
    StoreLanes<W>(value_row + row, v);
  }
  StoreLanes<W>(bad + l0, latch);
  if constexpr (kRelax) {
    StoreLanes<W>(policy_change + l0, dp);
    StoreLanes<W>(value_change + l0, dv_max);
  }
}

// Runs the tail over every lane as lane packs.
MFGCP_BATCH_TARGET_CLONES
void EmitNode(NodeTail tail, std::size_t nq, std::size_t m, const double* vd,
              const double* avd, const double* w4, const double* inv_2w5,
              const double* opt_k1, const double* opt_k2,
              const double* inv_dx, const double* inv_2dx,
              const double* gamma, double* __restrict value_row,
              double* __restrict policy_row, double* __restrict bad,
              double* __restrict policy_change,
              double* __restrict value_change) {
  numerics::ForEachLaneChunk(
      m, [&]<std::size_t W>(std::size_t l0) __attribute__((always_inline)) {
        if (tail == NodeTail::kOptimal) {
          EmitNodeImpl<W, NodeTail::kOptimal>(
              nq, m, l0, vd, avd, w4, inv_2w5, opt_k1, opt_k2, inv_dx,
              inv_2dx, gamma, value_row, policy_row, bad, policy_change,
              value_change);
        } else if (tail == NodeTail::kRelaxed) {
          EmitNodeImpl<W, NodeTail::kRelaxed>(
              nq, m, l0, vd, avd, w4, inv_2w5, opt_k1, opt_k2, inv_dx,
              inv_2dx, gamma, value_row, policy_row, bad, policy_change,
              value_change);
        } else {
          EmitNodeImpl<W, NodeTail::kValueOnly>(
              nq, m, l0, vd, avd, w4, inv_2w5, opt_k1, opt_k2, inv_dx,
              inv_2dx, gamma, value_row, policy_row, bad, policy_change,
              value_change);
        }
      });
}

}  // namespace

void HjbBatchSolver::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  // Grow-only: shrinking would free the lane params' profile storage that
  // the next wider block copies into again.
  if (params_.size() < num_lanes) params_.resize(num_lanes);
  grids_.resize(num_lanes);
  opt_k1_.resize(num_lanes);
  opt_k2_.resize(num_lanes);
  content_size_.resize(num_lanes);
  edge_rate_.resize(num_lanes);
  cloud_rate_.resize(num_lanes);
  ondemand_rate_.resize(num_lanes);
  eta2_.resize(num_lanes);
  w4_.resize(num_lanes);
  w5_.resize(num_lanes);
  sharing_price_.resize(num_lanes);
  threshold_.resize(num_lanes);
  sharpness_.resize(num_lanes);
  dt_.resize(num_lanes);
  dt_sub_.resize(num_lanes);
  diffusion_.resize(num_lanes);
  substeps_.resize(num_lanes);
  sharing_.resize(num_lanes);
  inv_2w5_.resize(num_lanes);
  k_delay_.resize(num_lanes);
  inv_edge_.resize(num_lanes);
  inv_ond_.resize(num_lanes);
  inv_dx_.resize(num_lanes);
  inv_2dx_.resize(num_lanes);
  inv_dx2_.resize(num_lanes);
}

common::Status HjbBatchSolver::BindLane(std::size_t lane,
                                        const MfgParams& params) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params.MakeCaseModel());
  const std::size_t nq = q_grid.size();
  const std::size_t nt = params.grid.num_time_steps;
  if (bound_lanes_ == 0) {
    nq_ = nq;
    nt_ = nt;
    q_coords_.Assign(nq, num_lanes_, 0.0);
    avail_.Assign(nq, num_lanes_, 0.0);
    p1_.Assign(nq, num_lanes_, 0.0);
    fq_gt_.Assign(nq, num_lanes_, 0.0);
    served_own_.Assign(nq, num_lanes_, 0.0);
    q_pos_.Assign(nq, num_lanes_, 0.0);
    cs_nw_.Assign(nq, num_lanes_, 0.0);
    cs_rd_.Assign(nt, num_lanes_, 0.0);
  } else if (nq != nq_ || nt != nt_) {
    return common::Status::InvalidArgument(
        "batch lanes must share the grid shape");
  }
  ++bound_lanes_;

  params_[lane] = params;
  grids_[lane] = q_grid;

  const double content_size = params.content_size;
  const double threshold = case_model.alpha() * content_size;
  const double sharpness = params.case_sharpness;
  for (std::size_t i = 0; i < nq; ++i) {
    const double q = q_grid.x(i);
    q_coords_.at(i, lane) = q;
    const double avail = params.ControlAvailability(q);
    avail_.at(i, lane) = avail;
    p1_.at(i, lane) = Logistic(sharpness, threshold - q);
    fq_gt_.at(i, lane) = Logistic(sharpness, q - threshold);
    served_own_.at(i, lane) = std::max(content_size - q, 0.0);
    q_pos_.at(i, lane) = std::max(q, 0.0);
    cs_nw_.at(i, lane) = content_size * (-params.dynamics.w1 * avail);
  }

  // The per-time-node drift offset (one std::pow each), tabulated once per
  // bind instead of once per sweep.
  for (std::size_t n = 0; n < nt; ++n) {
    const double retention = params.dynamics.w2 * params.PopularityAt(n);
    const double discard =
        params.dynamics.w3 *
        std::pow(params.dynamics.xi, params.TimelinessAt(n));
    cs_rd_.at(n, lane) = content_size * (retention - discard);
  }

  const auto& staleness = params.utility.staleness;
  opt_k1_[lane] = staleness.eta2 * content_size / staleness.cloud_rate;
  opt_k2_[lane] = content_size * params.dynamics.w1;
  content_size_[lane] = content_size;
  edge_rate_[lane] = params.edge_rate;
  cloud_rate_[lane] = staleness.cloud_rate;
  ondemand_rate_[lane] = staleness.cloud_ondemand_rate;
  eta2_[lane] = staleness.eta2;
  w4_[lane] = params.utility.placement.w4;
  w5_[lane] = params.utility.placement.w5;
  sharing_price_[lane] = params.utility.sharing_price;
  threshold_[lane] = threshold;
  sharpness_[lane] = sharpness;
  sharing_[lane] = params.sharing_enabled ? 1 : 0;
  // Bind-time reciprocals of the per-element divisors.
  inv_2w5_[lane] = 1.0 / (2.0 * params.utility.placement.w5);
  k_delay_[lane] = staleness.eta2 * (content_size / staleness.cloud_rate);
  inv_edge_[lane] = 1.0 / params.edge_rate;
  inv_ond_[lane] = 1.0 / staleness.cloud_ondemand_rate;
  // The FD kernels' per-call reciprocal hoists, per lane.
  inv_dx_[lane] = 1.0 / q_grid.dx();
  inv_2dx_[lane] = 1.0 / (2.0 * q_grid.dx());
  inv_dx2_[lane] = 1.0 / (q_grid.dx() * q_grid.dx());

  // CFL sub-stepping: conservative drift bound over the horizon (profiles
  // included); the diffusion coefficient is ½ ϱ_q².
  dt_[lane] = params.TimeStep();
  const double max_speed = params.MaxAbsDriftSpeed();
  const double diffusion =
      0.5 * params.dynamics.rho_q * params.dynamics.rho_q;
  diffusion_[lane] = diffusion;
  const double stable_dt = numerics::StableTimeStep(
      q_grid.dx(), max_speed, diffusion, params.grid.cfl_safety);
  substeps_[lane] = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(dt_[lane] / stable_dt)));
  dt_sub_[lane] = dt_[lane] / static_cast<double>(substeps_[lane]);
  return common::Status::Ok();
}

void HjbBatchSolver::SolveInto(std::span<LaneIo> lanes, Workspace& ws) const {
  const std::size_t m = num_lanes_;
  const std::size_t nt = nt_;
  const std::size_t nq = nq_;
  ws.io_alive.assign(m, 0);
  ws.io_mean_field.resize((nt + 1) * m);
  for (std::size_t l = 0; l < m; ++l) {
    LaneIo& lane = lanes[l];
    if (!lane.active) continue;
    lane.status = common::Status::Ok();
    // Per-lane validation, as in the one-lane HjbSolver1D::SolveInto.
    if (lane.mean_field->size() != nt + 1) {
      lane.status = common::Status::InvalidArgument(
          "mean_field must have num_time_steps + 1 entries, got " +
          std::to_string(lane.mean_field->size()));
      continue;
    }
    for (std::size_t n = 0; n <= nt; ++n) {
      ws.io_mean_field[n * m + l] = (*lane.mean_field)[n];
    }
    ws.io_alive[l] = 1;
  }
  ws.io_value.Reshape((nt + 1) * nq, m);
  ws.io_policy.Reshape((nt + 1) * nq, m);
  SweepInto(ws.io_mean_field, {ws.io_value.data(), ws.io_policy.data()},
            ws.io_alive, ws);
  for (std::size_t l = 0; l < m; ++l) {
    LaneIo& lane = lanes[l];
    if (!lane.active || !lane.status.ok()) continue;
    if (ws.io_alive[l] == 0) {
      lane.status = ws.status[l];
      continue;
    }
    WriteLaneInto(l, ws.io_value.data(), ws.io_policy.data(),
                  *lane.solution);
  }
}

void HjbBatchSolver::WriteLaneInto(std::size_t lane, const double* value,
                                   const double* policy,
                                   HjbSolution& out) const {
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  const std::size_t nt = nt_;
  out.q_grid = grids_[lane];
  out.dt = dt_[lane];
  out.value.Reshape(nt + 1, nq);
  out.policy.Reshape(nt + 1, nq);
  double* __restrict value_out = out.value.data();
  double* __restrict policy_out = out.policy.data();
  const std::size_t elements = (nt + 1) * nq;
  for (std::size_t k = 0; k < elements; ++k) {
    value_out[k] = value[k * m + lane];
    policy_out[k] = policy[k * m + lane];
  }
}

void HjbBatchSolver::SweepInto(std::span<const MeanFieldQuantities> mean_field,
                               const Fields& out,
                               std::span<std::uint8_t> alive,
                               Workspace& ws) const {
  MFG_OBS_SPAN("HjbBatch.SolveInto");
  std::size_t timed_lanes = 0;  // One core.hjb.sweeps count each.
  MFG_OBS_SCOPED_LANE_TIMER("core.hjb.sweep_seconds", timed_lanes);
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  const std::size_t nt = nt_;
  const std::size_t row_size = nq * m;

  ws.lane.Assign(kLaneRows, m, 0.0);
  ws.status.resize(m);
  double* p2_factor = ws.lane[kP2Factor].data();
  double* fpeer_gt = ws.lane[kFpeerGt].data();
  double* p2_extra = ws.lane[kP2Extra].data();
  double* gated_share_price = ws.lane[kGatedSharePrice].data();
  double* share_n = ws.lane[kShareN].data();
  double* served_peer = ws.lane[kServedPeer].data();
  double* num_requests = ws.lane[kNumRequests].data();
  double* price = ws.lane[kPrice].data();
  double* peer = ws.lane[kPeer].data();
  double* update = ws.lane[kUpdate].data();
  double* bad = ws.lane[kBad].data();
  const numerics::LaneAxis* axis = out.coupled;
  // Coupled lanes share one surface: a lane that fails fails them all.
  auto drop_all = [&](const common::Status& status) {
    for (std::size_t l = 0; l < m; ++l) {
      if (alive[l] == 0) continue;
      ws.status[l] = status;
      alive[l] = 0;
    }
  };

  std::size_t max_substeps = 0;
  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    if (axis == nullptr) {  // A coupled sweep counts as one 2-D sweep.
      MFG_OBS_COUNT("core.hjb.sweeps", 1);
      ++timed_lanes;
    }
    // Preconditions of the econ kernels the fold transcribes
    // (ServiceDelay / StalenessCost) that params.Validate() leaves open.
    const char* invalid = nullptr;
    if (cloud_rate_[l] <= 0.0 || ondemand_rate_[l] <= 0.0) {
      invalid = "cloud rates must be positive";
    } else if (edge_rate_[l] <= 0.0) {
      invalid = "edge rate must be positive";
    } else if (content_size_[l] <= 0.0) {
      invalid = "content size must be positive";
    } else if (eta2_[l] < 0.0) {
      invalid = "eta2 must be non-negative";
    }
    if (invalid != nullptr) {
      ws.status[l] = common::Status::InvalidArgument(invalid);
      alive[l] = 0;
      if (axis != nullptr) return drop_all(ws.status[l]);
      continue;
    }
    max_substeps = std::max(max_substeps, substeps_[l]);
  }
  const double* dt_sub = dt_sub_.data();
  if (axis != nullptr) {
    max_substeps = axis->substeps;
    double* shared_dt_sub = ws.lane[kCoupledDtSub].data();
    for (std::size_t l = 0; l < m; ++l) {
      shared_dt_sub[l] = axis->dt_sub;
      update[l] = alive[l] ? 1.0 : 0.0;
    }
    dt_sub = shared_dt_sub;
    ws.coupled.Reshape(nq, m);
  }

  ws.v.Assign(nq, m, 0.0);
  ws.base.Assign(nq, m, 0.0);

  // Hoisted data pointers for the hot helpers: handing the per-lane tables
  // over as plain pointers (instead of member-vector reads inside the
  // loops) is what lets their lane loops vectorize — see the helper block
  // above.
  const double* p1d = p1_.data();
  const double* fqd = fq_gt_.data();
  const double* sod = served_own_.data();
  const double* qpd = q_pos_.data();
  const double* qcd = q_coords_.data();
  const double* avd = avail_.data();
  const double* csnw = cs_nw_.data();
  const double* w4 = w4_.data();
  const double* w5 = w5_.data();
  const double* k1 = opt_k1_.data();
  const double* k2 = opt_k2_.data();
  const double* cs = content_size_.data();
  const double* i_edge = inv_edge_.data();
  const double* i_ond = inv_ond_.data();
  const double* kdel = k_delay_.data();
  const double* i2w5 = inv_2w5_.data();
  const double* eta2 = eta2_.data();
  const double* diffusion = diffusion_.data();
  const double* i_dx = inv_dx_.data();
  const double* i_2dx = inv_2dx_.data();
  const double* vd = ws.v.data();

  const NodeTail tail = out.control != nullptr ? NodeTail::kValueOnly
                        : out.gamma != nullptr  ? NodeTail::kRelaxed
                                                : NodeTail::kOptimal;
  // Node n's policy row (none in fixed-control mode).
  auto policy_row = [&](std::size_t n) {
    return out.policy != nullptr ? out.policy + n * row_size : nullptr;
  };

  // Terminal condition V(T, ·) = 0 (ws.v is all zeros) and the
  // corresponding terminal policy, emitted like every other node.
  EmitNode(tail, nq, m, vd, avd, w4, i2w5, k1, k2, i_dx, i_2dx, out.gamma,
           out.value + nt * row_size, policy_row(nt), bad, out.policy_change,
           out.value_change);

  for (std::size_t n = nt; n-- > 0;) {
    // Per-lane per-node folds; the logistic pair here is the only
    // transcendental of the whole output interval.
    for (std::size_t l = 0; l < m; ++l) {
      if (!alive[l]) continue;
      const MeanFieldQuantities& mf = mean_field[n * m + l];
      const MfgParams& params = params_[l];
      peer[l] = mf.mean_peer_remaining;
      price[l] = mf.price;
      num_requests[l] = params.RequestsAt(n);
      const bool sharing = sharing_[l] != 0;
      share_n[l] = sharing ? mf.sharing_benefit : 0.0;
      served_peer[l] = std::max(content_size_[l] - peer[l], 0.0);
      double fpeer_le = 0.0;
      LogisticPair(sharpness_[l], peer[l] - threshold_[l], fpeer_gt[l],
                   fpeer_le);
      p2_factor[l] = sharing ? fpeer_le : 0.0;
      p2_extra[l] = sharing ? 0.0 : fpeer_le;
      gated_share_price[l] = sharing ? sharing_price_[l] : 0.0;
    }

    // Control-independent fold, collapsed into the single per-node table
    // ws.base, with the separable case factors substituted. Dead lanes
    // compute garbage that is never read.
    FoldControlIndependentTerms(nq, m, p1d, fqd, sod, qpd, qcd,
                                ws.lane.data(), cs, i_edge, i_ond, eta2,
                                ws.base.data());

    const double* cs_rd = cs_rd_[n].data();
    const double* control =
        out.control != nullptr ? out.control + n * row_size : nullptr;
    auto fused_substep = [&] {
      FusedHjbSubstep(nq, m, avd, csnw, ws.base.data(), inv_dx_.data(),
                      inv_2dx_.data(), inv_dx2_.data(), w4, w5, i2w5, k1, k2,
                      cs_rd, kdel, diffusion, dt_sub, update, control,
                      ws.v.data());
    };
    for (std::size_t sub = 0; sub < max_substeps; ++sub) {
      if (axis == nullptr) {
        for (std::size_t l = 0; l < m; ++l) {
          update[l] = (alive[l] != 0 && sub < substeps_[l]) ? 1.0 : 0.0;
        }
        fused_substep();
        continue;
      }
      // Coupled: the h-terms read the pre-substep surface.
      CoupledHjbTerms(nq, m, *axis, vd, ws.coupled.data());
      fused_substep();
      double* v = ws.v.data();
      const double* incr = ws.coupled.data();
      for (std::size_t k = 0; k < row_size; ++k) v[k] += incr[k];
    }
    // Divergence check once per output time node instead of per substep: a
    // non-finite value can never become finite again (inf/NaN propagate
    // through the affine update and the select keeps a masked lane's bits),
    // so a lane that diverged at any substep of this node is still caught
    // by EmitNode's latch and reported at the node where it diverged.
    std::fill(bad, bad + m, 0.0);
    EmitNode(tail, nq, m, vd, avd, w4, i2w5, k1, k2, i_dx, i_2dx, out.gamma,
             out.value + n * row_size, policy_row(n), bad, out.policy_change,
             out.value_change);
    for (std::size_t l = 0; l < m; ++l) {
      if (alive[l] == 0 || bad[l] == 0.0) continue;
      MFG_FLIGHT_EVENT(kDivergence, obs::kFlightDivergenceHjb,
                       params_[l].content_id, static_cast<std::uint32_t>(n),
                       0.0, 0.0);
      ws.status[l] = common::Status::NumericalError(
          "HJB value diverged at time node " + std::to_string(n));
      alive[l] = 0;
      if (axis != nullptr) return drop_all(ws.status[l]);
    }
  }

  if (axis != nullptr) return;  // Not a content lane-sweep.
  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    MFG_FLIGHT_EVENT(kHjbSweep, 0, params_[l].content_id, 0,
                     static_cast<double>(substeps_[l]),
                     obs::FlightMaxAbs(out.value + l, nq, m));
  }
}

}  // namespace mfg::core
