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
// the same bits the scalar CaseModel::Evaluate produces.
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

// common::ClampUnit verbatim (min(max(x, 0), 1)), inlined so the substep
// loop stays call-free.
inline double ClampUnitInline(double x) {
  return std::min(std::max(x, 0.0), 1.0);
}

// The three per-substep lane loops below are the profile of the whole
// backward sweep, so they are kept in a shape GCC's vectorizer accepts:
// free functions whose every array comes in as a plain pointer (a member
// std::vector read inside a loop that also stores doubles forces the
// compiler to re-load the vector's data pointer each iteration — "evolution
// of base is not affine" — because the store might alias the vector
// header), __restrict on the stores, and selects instead of branches.
// MFGCP_BATCH_TARGET_CLONES adds AVX2/AVX-512 clones behind a runtime
// dispatch; -ffp-contract=off (forced project-wide) keeps every clone on
// the scalar solvers' two-rounding multiply-add bits.

// Every control-independent utility term for every (node, lane) — trading
// income, sharing benefit, η₂·request-service delay, sharing cost —
// folded into the single per-node constant `based`, once per time node
// (HjbSolver1D folds the identical expression into ws.base). The sharing
// branch is pre-folded into p2_factor/p2_extra/gated_share_price (see
// Workspace); p3 = fq·fgt + fq·extra reproduces both scalar branches
// bit-for-bit because the gated term is exactly +0.0 on the disabled side.
//
// M is the compile-time lane count (0 = runtime `mm`), as in
// FusedSubstepImpl: with M fixed each row is one unrolled lane loop, with
// no per-row trip-count and remainder bookkeeping.
template <std::size_t M>
__attribute__((always_inline)) inline void FoldControlIndependentTermsImpl(
    std::size_t nq, std::size_t mm, const double* p1d, const double* fqd,
    const double* sod, const double* qpd, const double* qcd,
    const double* p2_factor, const double* fpeer_gt, const double* p2_extra,
    const double* served_peer, const double* content_size,
    const double* num_requests, const double* price, const double* inv_edge,
    const double* inv_ond, const double* gated_share_price,
    const double* peer, const double* share_n, const double* eta2,
    double* __restrict based) {
  const std::size_t m = M ? M : mm;
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t row = i * m;
    for (std::size_t l = 0; l < m; ++l) {
      const double p1 = p1d[row + l];
      const double fq = fqd[row + l];
      const double p2 = fq * p2_factor[l];
      const double p3 = fq * fpeer_gt[l] + fq * p2_extra[l];
      // econ::TradingIncome with the lane tables substituted.
      const double expected_data = p1 * sod[row + l] +
                                   p2 * served_peer[l] +
                                   p3 * content_size[l];
      const double trading = num_requests[l] * price[l] * expected_data;
      const double per_request =
          p1 * sod[row + l] * inv_edge[l] +
          p2 * served_peer[l] * inv_edge[l] +
          p3 * (qpd[row + l] * inv_ond[l] +
                content_size[l] * inv_edge[l]);
      const double rest_delay = num_requests[l] * per_request;
      // econ::SharingCost(sharing_price, p2, q, peer).
      const double transferred = std::max(qcd[row + l] - peer[l], 0.0);
      const double sharing_cost = p2 * gated_share_price[l] * transferred;
      based[row + l] =
          trading + share_n[l] - eta2[l] * rest_delay - sharing_cost;
    }
  }
}

MFGCP_BATCH_TARGET_CLONES
void FoldControlIndependentTerms(
    std::size_t nq, std::size_t m, const double* p1d, const double* fqd,
    const double* sod, const double* qpd, const double* qcd,
    const double* p2_factor, const double* fpeer_gt, const double* p2_extra,
    const double* served_peer, const double* content_size,
    const double* num_requests, const double* price, const double* inv_edge,
    const double* inv_ond, const double* gated_share_price,
    const double* peer, const double* share_n, const double* eta2,
    double* __restrict based) {
#define MFGCP_FOLD(M)                                                      \
  FoldControlIndependentTermsImpl<M>(                                      \
      nq, m, p1d, fqd, sod, qpd, qcd, p2_factor, fpeer_gt, p2_extra,       \
      served_peer, content_size, num_requests, price, inv_edge, inv_ond,   \
      gated_share_price, peer, share_n, eta2, based)
  switch (m) {
    case 2: MFGCP_FOLD(2); break;
    case 4: MFGCP_FOLD(4); break;
    case 8: MFGCP_FOLD(8); break;
    default: MFGCP_FOLD(0); break;
  }
#undef MFGCP_FOLD
}

// One whole CFL substep — gradient, Theorem-1 control, drift, upwind
// gradient, second derivative and the masked Euler update — as a single
// pass over the value surface. The separate-kernel formulation walks the
// (nq × lanes) arrays five times per substep and spills every intermediate
// (dv, x*, drift, upwind velocity, d2v) to memory; at nq = 161 the working
// set overflows L1 and the sweep is bound by those redundant passes, not
// by arithmetic. Fused, each row is read once, every intermediate lives in
// registers, and the only streamed arrays are v (read+write) and the three
// per-node tables (avail, cs_nw, base).
//
// Bit-identity is preserved because each element's result depends only on
// the PREVIOUS substep's value surface and on per-element expressions: the
// three-row rotation (vm/vi/vp = old v[i−1], v[i], v[i+1]) guarantees the
// stencils read pre-update values even though v[i] is overwritten in the
// same pass, and every expression below is the scalar solver's, verbatim:
//
//   dv       = central/one-sided gradient      (GradientInto)
//   x        = clamp(−(w4 + a·(k1 + k2·dv))/2w5)   (OptimalRate)
//   drift    = cs_nw·x − cs_rd
//   dvu      = upwind difference on −drift > 0  (UpwindGradientInto; the
//              boundary rows' branches coincide, exactly as in the scalar
//              kernel, and d²v at the boundary copies the adjacent
//              interior row — d2_1 for row 0, d2_{n−2} for row n−1)
//   v       += dt_sub·(drift·dvu + D·d²v + base − w4·x − w5·x² −
//              k_delay·x·a)                      (masked by select)
//
// M is the compile-time lane count (0 = runtime `mm`): the batch width is
// 8 by default (mfg_cp.h), and with M fixed the lane loops fully unroll —
// one 64-byte vector per row under AVX-512 — and the rotation rows promote
// to registers. The runtime-M fallback rotates pointers through the `rot`
// scratch (4·m doubles: three rotation rows plus the carried d²v row).
// always_inline: the body must be inlined into every ISA clone of the
// dispatcher below so the lane loops vectorize at that clone's width; an
// out-of-line instantiation would be compiled once at baseline SSE2.
template <std::size_t M>
__attribute__((always_inline)) inline void FusedSubstepImpl(
    std::size_t nq, std::size_t mm, const double* avd, const double* csnw,
    const double* based, const double* inv_dx, const double* inv_2dx,
    const double* inv_dx2, const double* w4, const double* w5,
    const double* inv_2w5, const double* opt_k1, const double* opt_k2,
    const double* cs_rd, const double* k_delay, const double* diffusion,
    const double* dt_sub, const double* update, double* __restrict vd,
    double* rot) {
  const std::size_t m = M ? M : mm;
  constexpr std::size_t kStatic = M ? M : 1;
  // Rotation storage: fixed-size locals for compile-time M (unrolled into
  // registers), pointer-cycled scratch rows otherwise.
  double vm_s[kStatic], vi_s[kStatic], vp_s[kStatic], d2_s[kStatic];
  double* vm = M ? vm_s : rot;
  double* vi = M ? vi_s : rot + m;
  double* vp = M ? vp_s : rot + 2 * m;
  double* d2_prev = M ? d2_s : rot + 3 * m;
  for (std::size_t l = 0; l < m; ++l) {
    vm[l] = vd[l];
    vi[l] = vd[m + l];
    vp[l] = vd[2 * m + l];
  }

  // Row 0: one-sided gradient; the upwind branches coincide on the same
  // difference; d²v copies interior row 1 (computed from old rows 0..2).
  for (std::size_t l = 0; l < m; ++l) {
    const double dv = (vi[l] - vm[l]) * inv_dx[l];
    const double numerator =
        w4[l] + avd[l] * (opt_k1[l] + opt_k2[l] * dv);
    const double x = ClampUnitInline(-numerator * inv_2w5[l]);
    const double drift = csnw[l] * x - cs_rd[l];
    const double dvu = (vi[l] - vm[l]) * inv_dx[l];
    const double d2_1 = (vp[l] - 2.0 * vi[l] + vm[l]) * inv_dx2[l];
    const double placement = w4[l] * x + w5[l] * x * x;
    const double utility = based[l] - placement - k_delay[l] * x * avd[l];
    const double hamiltonian = drift * dvu + diffusion[l] * d2_1 + utility;
    const double updated = vm[l] + dt_sub[l] * hamiltonian;
    vd[l] = numerics::LaneSelect(update[l], updated, vm[l]);
    d2_prev[l] = d2_1;
  }

  for (std::size_t i = 1; i + 1 < nq; ++i) {
    const std::size_t row = i * m;
    for (std::size_t l = 0; l < m; ++l) {
      const double dv = (vp[l] - vm[l]) * inv_2dx[l];
      const double numerator =
          w4[l] + avd[row + l] * (opt_k1[l] + opt_k2[l] * dv);
      const double x = ClampUnitInline(-numerator * inv_2w5[l]);
      const double drift = csnw[row + l] * x - cs_rd[l];
      // Upwind on the backward-time transport velocity −drift (the scalar
      // solver's ws.upwind_velocity), selected before the shared inv_dx
      // multiply exactly as in UpwindGradientBatchInto.
      const double num =
          -drift > 0.0 ? vi[l] - vm[l] : vp[l] - vi[l];
      const double dvu = num * inv_dx[l];
      const double d2 = (vp[l] - 2.0 * vi[l] + vm[l]) * inv_dx2[l];
      const double placement = w4[l] * x + w5[l] * x * x;
      const double utility =
          based[row + l] - placement - k_delay[l] * x * avd[row + l];
      const double hamiltonian = drift * dvu + diffusion[l] * d2 + utility;
      const double updated = vi[l] + dt_sub[l] * hamiltonian;
      vd[row + l] = numerics::LaneSelect(update[l], updated, vi[l]);
      d2_prev[l] = d2;
    }
    if (i + 2 < nq) {
      if constexpr (M == 0) {
        double* recycled = vm;
        vm = vi;
        vi = vp;
        vp = recycled;
        for (std::size_t l = 0; l < m; ++l) {
          vp[l] = vd[(i + 2) * m + l];
        }
      } else {
        for (std::size_t l = 0; l < m; ++l) {
          vm[l] = vi[l];
          vi[l] = vp[l];
          vp[l] = vd[(i + 2) * m + l];
        }
      }
    }
  }

  // Row n−1: one-sided gradient (coinciding upwind branches) and the
  // carried interior d²v row, on old values vi = v[n−2], vp = v[n−1].
  {
    const std::size_t row = (nq - 1) * m;
    for (std::size_t l = 0; l < m; ++l) {
      const double dv = (vp[l] - vi[l]) * inv_dx[l];
      const double numerator =
          w4[l] + avd[row + l] * (opt_k1[l] + opt_k2[l] * dv);
      const double x = ClampUnitInline(-numerator * inv_2w5[l]);
      const double drift = csnw[row + l] * x - cs_rd[l];
      const double dvu = (vp[l] - vi[l]) * inv_dx[l];
      const double placement = w4[l] * x + w5[l] * x * x;
      const double utility =
          based[row + l] - placement - k_delay[l] * x * avd[row + l];
      const double hamiltonian =
          drift * dvu + diffusion[l] * d2_prev[l] + utility;
      const double updated = vp[l] + dt_sub[l] * hamiltonian;
      vd[row + l] = numerics::LaneSelect(update[l], updated, vp[l]);
    }
  }
}

// Runtime dispatch to the lane-width specializations. The ISA clones hang
// off this dispatcher; the always-inlined template bodies inherit each
// clone's target, so the M = 8 row loop compiles to one 64-byte vector
// iteration in the avx512f clone.
MFGCP_BATCH_TARGET_CLONES
void FusedHjbSubstep(
    std::size_t nq, std::size_t m, const double* avd, const double* csnw,
    const double* based, const double* inv_dx, const double* inv_2dx,
    const double* inv_dx2, const double* w4, const double* w5,
    const double* inv_2w5, const double* opt_k1, const double* opt_k2,
    const double* cs_rd, const double* k_delay, const double* diffusion,
    const double* dt_sub, const double* update, double* __restrict vd,
    double* rot) {
  switch (m) {
    case 2:
      FusedSubstepImpl<2>(nq, m, avd, csnw, based, inv_dx, inv_2dx, inv_dx2,
                          w4, w5, inv_2w5, opt_k1, opt_k2, cs_rd, k_delay,
                          diffusion, dt_sub, update, vd, rot);
      break;
    case 4:
      FusedSubstepImpl<4>(nq, m, avd, csnw, based, inv_dx, inv_2dx, inv_dx2,
                          w4, w5, inv_2w5, opt_k1, opt_k2, cs_rd, k_delay,
                          diffusion, dt_sub, update, vd, rot);
      break;
    case 8:
      FusedSubstepImpl<8>(nq, m, avd, csnw, based, inv_dx, inv_2dx, inv_dx2,
                          w4, w5, inv_2w5, opt_k1, opt_k2, cs_rd, k_delay,
                          diffusion, dt_sub, update, vd, rot);
      break;
    default:
      FusedSubstepImpl<0>(nq, m, avd, csnw, based, inv_dx, inv_2dx, inv_dx2,
                          w4, w5, inv_2w5, opt_k1, opt_k2, cs_rd, k_delay,
                          diffusion, dt_sub, update, vd, rot);
      break;
  }
}

// ClampUnitInline per lane.
template <std::size_t W>
__attribute__((always_inline)) inline numerics::LaneVector<W> ClampUnitLanes(
    numerics::LaneVector<W> x) {
  const numerics::LaneVector<W> zero{};
  const numerics::LaneVector<W> one = zero + 1.0;
  const numerics::LaneVector<W> low = x < zero ? zero : x;  // std::max.
  return one < low ? one : low;                             // std::min.
}

// The per-output-node tail for lanes [l0, l0 + W), as one pass over the
// value surface: the gradient (GradientInto's one-sided/central stencil,
// verbatim), the Theorem-1 policy from it (the fused substep's control
// expression), and the non-finite latch bad[l] += v − v (+0.0 for every
// finite v, NaN for ±inf/NaN, so a lane pre-filled with 0.0 stays exactly
// 0.0 iff its column is all-finite; the build never enables
// -ffinite-math-only). The node's value and policy rows land in the
// [node][lane] rows `value_row` / `policy_row` of the caller's
// [time][node][lane] fields.
//
// kRelax folds Alg. 2's relaxed update into the same pass: the policy row
// holds the previous iterate p, replaced by p' = (1 − γ)·p + γ·x* (the
// learners' expression, verbatim), and the value row holds the previous
// surface; max|p' − p| and max|V − V_prev| fold into policy_change[l] and
// value_change[l] — exact in any order, as in RelaxAndMeasureResiduals.
// The latch and both maxima stay in LaneVector registers across the node.
template <std::size_t W, bool kRelax>
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
    // Row i's stencil ends (one-sided at the boundaries).
    const std::size_t hi = (i + 1 < nq ? i + 1 : i) * m + l0;
    const std::size_t lo = (i > 0 ? i - 1 : i) * m + l0;
    const Pack inv = (i > 0 && i + 1 < nq) ? central : one_sided;
    const Pack v = LoadLanes<W>(vd + row);
    latch += v - v;
    const Pack dv = (LoadLanes<W>(vd + hi) - LoadLanes<W>(vd + lo)) * inv;
    const Pack numerator = w4_l + LoadLanes<W>(avd + row) * (k1 + k2 * dv);
    const Pack x = ClampUnitLanes<W>(-numerator * inv_2w5_l);
    if constexpr (kRelax) {
      const Pack old = LoadLanes<W>(policy_row + row);
      const Pack updated = (1.0 - gamma_l) * old + gamma_l * x;
      dp = numerics::MaxKeepLanes<W>(dp, numerics::AbsLanes<W>(updated - old));
      dv_max = numerics::MaxKeepLanes<W>(
          dv_max, numerics::AbsLanes<W>(v - LoadLanes<W>(value_row + row)));
      StoreLanes<W>(policy_row + row, updated);
    } else {
      StoreLanes<W>(policy_row + row, x);
    }
    StoreLanes<W>(value_row + row, v);
  }
  StoreLanes<W>(bad + l0, latch);
  if constexpr (kRelax) {
    StoreLanes<W>(policy_change + l0, dp);
    StoreLanes<W>(value_change + l0, dv_max);
  }
}

// Runs the tail over every lane as lane packs, relaxed when `gamma` is
// non-null.
MFGCP_BATCH_TARGET_CLONES
void EmitNode(std::size_t nq, std::size_t m, const double* vd,
              const double* avd, const double* w4, const double* inv_2w5,
              const double* opt_k1, const double* opt_k2,
              const double* inv_dx, const double* inv_2dx,
              const double* gamma, double* __restrict value_row,
              double* __restrict policy_row, double* __restrict bad,
              double* __restrict policy_change,
              double* __restrict value_change) {
  numerics::ForEachLaneChunk(
      m, [&]<std::size_t W>(std::size_t l0) __attribute__((always_inline)) {
        if (gamma == nullptr) {
          EmitNodeImpl<W, false>(nq, m, l0, vd, avd, w4, inv_2w5, opt_k1,
                                 opt_k2, inv_dx, inv_2dx, gamma, value_row,
                                 policy_row, bad, policy_change,
                                 value_change);
        } else {
          EmitNodeImpl<W, true>(nq, m, l0, vd, avd, w4, inv_2w5, opt_k1,
                                opt_k2, inv_dx, inv_2dx, gamma, value_row,
                                policy_row, bad, policy_change, value_change);
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
  dx_.resize(num_lanes);
  dt_.resize(num_lanes);
  dt_sub_.resize(num_lanes);
  diffusion_.resize(num_lanes);
  substeps_.resize(num_lanes);
  sharing_.resize(num_lanes);
  inv_2w5_.resize(num_lanes);
  cs_over_cloud_.resize(num_lanes);
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
    neg_w1_avail_.Assign(nq, num_lanes_, 0.0);
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
    neg_w1_avail_.at(i, lane) = -params.dynamics.w1 * avail;
    p1_.at(i, lane) = Logistic(sharpness, threshold - q);
    fq_gt_.at(i, lane) = Logistic(sharpness, q - threshold);
    served_own_.at(i, lane) = std::max(content_size - q, 0.0);
    q_pos_.at(i, lane) = std::max(q, 0.0);
    cs_nw_.at(i, lane) = content_size * neg_w1_avail_.at(i, lane);
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
  // The scalar solver's bind-time reciprocals (identical expressions).
  inv_2w5_[lane] = 1.0 / (2.0 * params.utility.placement.w5);
  cs_over_cloud_[lane] = content_size / staleness.cloud_rate;
  k_delay_[lane] = staleness.eta2 * cs_over_cloud_[lane];
  inv_edge_[lane] = 1.0 / params.edge_rate;
  inv_ond_[lane] = 1.0 / staleness.cloud_ondemand_rate;
  // The scalar FD kernels' per-call reciprocal hoists, per lane.
  inv_dx_[lane] = 1.0 / q_grid.dx();
  inv_2dx_[lane] = 1.0 / (2.0 * q_grid.dx());
  inv_dx2_[lane] = 1.0 / (q_grid.dx() * q_grid.dx());

  // Same sub-stepping arithmetic as the scalar SolveInto, moved to bind
  // time (all inputs are bind-time constants).
  dx_[lane] = q_grid.dx();
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
    // Per-lane validation, verbatim from the scalar SolveInto.
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

  std::vector<double>& update = ws.update;
  update.assign(m, 0.0);
  ws.bad.assign(m, 0.0);
  ws.status.resize(m);

  std::size_t max_substeps = 0;
  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    MFG_OBS_COUNT("core.hjb.sweeps", 1);
    ++timed_lanes;
    // Per-lane validation, verbatim from the scalar SolveInto.
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
      continue;
    }
    max_substeps = std::max(max_substeps, substeps_[l]);
  }

  ws.v.Assign(nq, m, 0.0);
  ws.base.Assign(nq, m, 0.0);
  ws.rot.assign(4 * m, 0.0);
  ws.p2_factor.assign(m, 0.0);
  ws.fpeer_gt.assign(m, 0.0);
  ws.p2_extra.assign(m, 0.0);
  ws.gated_share_price.assign(m, 0.0);
  ws.share_n.assign(m, 0.0);
  ws.served_peer.assign(m, 0.0);
  ws.num_requests.assign(m, 0.0);
  ws.price.assign(m, 0.0);
  ws.peer.assign(m, 0.0);

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
  const double* dt_sub = dt_sub_.data();
  const double* i_dx = inv_dx_.data();
  const double* i_2dx = inv_2dx_.data();
  const double* vd = ws.v.data();

  // Terminal condition V(T, ·) = 0 (ws.v is all zeros) and the
  // corresponding terminal policy, emitted like every other node.
  EmitNode(nq, m, vd, avd, w4, i2w5, k1, k2, i_dx, i_2dx, out.gamma,
           out.value + nt * row_size, out.policy + nt * row_size,
           ws.bad.data(), out.policy_change, out.value_change);

  for (std::size_t n = nt; n-- > 0;) {
    // Per-lane per-node folds; the logistic pair here is the only
    // transcendental of the whole output interval.
    for (std::size_t l = 0; l < m; ++l) {
      if (!alive[l]) continue;
      const MeanFieldQuantities& mf = mean_field[n * m + l];
      const MfgParams& params = params_[l];
      ws.peer[l] = mf.mean_peer_remaining;
      ws.price[l] = mf.price;
      ws.num_requests[l] = params.RequestsAt(n);
      const bool sharing = sharing_[l] != 0;
      ws.share_n[l] = sharing ? mf.sharing_benefit : 0.0;
      ws.served_peer[l] = std::max(content_size_[l] - ws.peer[l], 0.0);
      double fpeer_le = 0.0;
      LogisticPair(sharpness_[l], ws.peer[l] - threshold_[l], ws.fpeer_gt[l],
                   fpeer_le);
      ws.p2_factor[l] = sharing ? fpeer_le : 0.0;
      ws.p2_extra[l] = sharing ? 0.0 : fpeer_le;
      ws.gated_share_price[l] = sharing ? sharing_price_[l] : 0.0;
    }

    // Control-independent fold, collapsed into the single per-node table
    // ws.base — the scalar loop with the separable case factors
    // substituted. Dead lanes compute garbage that is never read.
    FoldControlIndependentTerms(
        nq, m, p1d, fqd, sod, qpd, qcd, ws.p2_factor.data(),
        ws.fpeer_gt.data(), ws.p2_extra.data(), ws.served_peer.data(), cs,
        ws.num_requests.data(), ws.price.data(), i_edge, i_ond,
        ws.gated_share_price.data(), ws.peer.data(), ws.share_n.data(),
        eta2, ws.base.data());

    const double* cs_rd = cs_rd_[n].data();
    for (std::size_t sub = 0; sub < max_substeps; ++sub) {
      for (std::size_t l = 0; l < m; ++l) {
        update[l] = (alive[l] != 0 && sub < substeps_[l]) ? 1.0 : 0.0;
      }
      FusedHjbSubstep(nq, m, avd, csnw, ws.base.data(), inv_dx_.data(),
                      inv_2dx_.data(), inv_dx2_.data(), w4, w5, i2w5, k1, k2,
                      cs_rd, kdel, diffusion, dt_sub, update.data(),
                      ws.v.data(), ws.rot.data());
    }
    // Divergence check once per output time node instead of per substep: a
    // non-finite value can never become finite again (inf/NaN propagate
    // through the affine update and the select keeps a masked lane's bits),
    // so a lane that diverged at any substep of this node is still caught
    // by EmitNode's latch, with the same time-node error the scalar solver
    // reports.
    std::fill(ws.bad.begin(), ws.bad.end(), 0.0);
    EmitNode(nq, m, vd, avd, w4, i2w5, k1, k2, i_dx, i_2dx, out.gamma,
             out.value + n * row_size, out.policy + n * row_size,
             ws.bad.data(), out.policy_change, out.value_change);
    for (std::size_t l = 0; l < m; ++l) {
      if (alive[l] == 0 || ws.bad[l] == 0.0) continue;
      MFG_FLIGHT_EVENT(kDivergence, obs::kFlightDivergenceHjb,
                       params_[l].content_id, static_cast<std::uint32_t>(n),
                       0.0, 0.0);
      ws.status[l] = common::Status::NumericalError(
          "HJB value diverged at time node " + std::to_string(n));
      alive[l] = 0;
    }
  }

  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    MFG_FLIGHT_EVENT(kHjbSweep, 0, params_[l].content_id, 0,
                     static_cast<double>(substeps_[l]),
                     obs::FlightMaxAbs(out.value + l, nq, m));
  }
}

}  // namespace mfg::core
