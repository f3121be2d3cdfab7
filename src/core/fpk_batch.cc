#include "core/fpk_batch.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "numerics/finite_difference.h"
#include "numerics/lane_vector.h"
#include "numerics/simd_support.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// Rows of FpkBatchSolver::Workspace::lane, the per-lane scratch table.
// The masks and latches are doubles (0.0 / nonzero), as in hjb_batch.cc:
// the update select and the latches vectorize only when the mask lanes
// match the double data width.
enum LaneRow : std::size_t {
  kUpdate,      // The substep's value-update mask.
  kBad,         // Non-finite latch of the current output node.
  kLive,        // 1.0 while the lane stores its rows.
  kClipFailed,  // 1.0 where the clip guard found the lane's mass ~0.
  kCoupledDtsDx,  // Coupled mode's shared dt_sub / dx, one per lane.
  kLaneRows,
};

// Hot lane loops as pointer-only free functions over lane packs, for the
// same reasons as in hjb_batch.cc: member-vector reads mixed with double
// stores defeat the vectorizer's aliasing analysis, and packs vectorize at
// every lane width (ForEachLaneChunk); MFGCP_BATCH_TARGET_CLONES adds
// AVX2/AVX-512 clones behind runtime dispatch.

// One whole explicit substep for lanes [l0, l0 + W) — finite-volume face
// fluxes (advective donor-cell + central diffusive) and the masked
// flux-divergence update — as a single pass over the densities. Row i's
// update needs the fluxes of its two faces; the left one is the previous
// row's right one, carried across the row loop, and the right one reads
// λ[i] and λ[i+1] before row i is overwritten (row i+1 is still old), so
// every flux sees the previous substep's densities exactly as the
// two-kernel formulation did, with its expressions verbatim. The boundary
// faces 0 and nq are reflecting (zero flux) and enter as +0.0 operands.
// always_inline so every ISA clone of the dispatcher vectorizes the body
// at its own width.
template <std::size_t W>
__attribute__((always_inline)) inline void FusedFpkSubstepImpl(
    std::size_t nq, std::size_t m, std::size_t l0, const double* vel,
    const double* d_over_dx, const double* dt_sub_over_dx,
    const double* update, double* __restrict lam) {
  using numerics::LoadLanes;
  using Pack = numerics::LaneVector<W>;
  const Pack d_dx = LoadLanes<W>(d_over_dx + l0);
  const Pack dts_dx = LoadLanes<W>(dt_sub_over_dx + l0);
  const Pack upd = LoadLanes<W>(update + l0);
  const Pack zero{};
  Pack left{};  // Flux through row i's left face; reflecting face 0.
  Pack lam_i = LoadLanes<W>(lam + l0);  // Old λ[i].
  Pack vel_i = LoadLanes<W>(vel + l0);
  for (std::size_t i = 0; i + 1 < nq; ++i) {
    const Pack lam_next = LoadLanes<W>(lam + (i + 1) * m + l0);
    const Pack vel_next = LoadLanes<W>(vel + (i + 1) * m + l0);
    const Pack v_face = 0.5 * (vel_i + vel_next);
    const Pack donor = v_face > zero ? lam_i : lam_next;
    const Pack advective = v_face * donor;
    const Pack diffusive = -d_dx * (lam_next - lam_i);
    const Pack right = advective + diffusive;
    const Pack updated = lam_i - dts_dx * (right - left);
    numerics::StoreLanes<W>(lam + i * m + l0,
                            numerics::SelectLanes<W>(upd, updated, lam_i));
    left = right;
    lam_i = lam_next;
    vel_i = vel_next;
  }
  const Pack updated = lam_i - dts_dx * (zero - left);
  numerics::StoreLanes<W>(lam + (nq - 1) * m + l0,
                          numerics::SelectLanes<W>(upd, updated, lam_i));
}

MFGCP_BATCH_TARGET_CLONES
void FusedFpkSubstep(std::size_t nq, std::size_t m, const double* vel,
                     const double* d_over_dx, const double* dt_sub_over_dx,
                     const double* update, double* __restrict lam) {
  numerics::ForEachLaneChunk(
      m, [&]<std::size_t W>(std::size_t l0) __attribute__((always_inline)) {
        FusedFpkSubstepImpl<W>(nq, m, l0, vel, d_over_dx, dt_sub_over_dx,
                               update, lam);
      });
}

// Implicit (backward Euler) band assembly: λ^{n+1} satisfies
//   (I − dt L) λ^{n+1} = λ^n
// where L is the flux-form operator the explicit substep applies. Writing
// the face flux between nodes i−1 and i as
//   F = v⁺ λ_{i−1} + v⁻ λ_i − D (λ_i − λ_{i−1}) / dx
// (v⁺ = max(v, 0), v⁻ = min(v, 0)), every face adds ±F/dx to its two
// adjacent rows, so the column sums of L vanish and the discrete mass is
// conserved by construction; boundary faces are absent (reflecting).
// diag/upper of face−1 and diag/lower of face accumulate one face's
// contribution each pass: dF/dλ_{face−1} = v⁺ + D/dx and
// dF/dλ_face = v⁻ − D/dx, moved to the LHS with the −dt factor.
MFGCP_BATCH_TARGET_CLONES
void AssembleImplicitSystem(std::size_t nq, std::size_t m, const double* vel,
                            const double* d_over_dx, const double* c,
                            double* __restrict lo, double* __restrict di,
                            double* __restrict up) {
  for (std::size_t face = 1; face < nq; ++face) {
    const std::size_t row = face * m;
    const std::size_t prev = (face - 1) * m;
    for (std::size_t l = 0; l < m; ++l) {
      const double v_face = 0.5 * (vel[prev + l] + vel[row + l]);
      const double v_plus = std::max(v_face, 0.0);
      const double v_minus = std::min(v_face, 0.0);
      di[prev + l] += c[l] * (v_plus + d_over_dx[l]);
      up[prev + l] += c[l] * (v_minus - d_over_dx[l]);
      di[row + l] += -c[l] * (v_minus - d_over_dx[l]);
      lo[row + l] += -c[l] * (v_plus + d_over_dx[l]);
    }
  }
}

// The node-n drift velocity of every (node, lane) under the policy row
// (the [node][lane] row of the batch's policy field):
// Q_k·(−w1·a(q)·x − w2·Π(t_n) + w3·ξ^L(t_n)), the same expression as
// MfgParams::CacheDriftAtNode with the node constants hoisted.
template <std::size_t W>
__attribute__((always_inline)) inline void DriftVelocityImpl(
    std::size_t nq, std::size_t m, std::size_t l0, const double* content_size,
    const double* nwd, const double* retention, const double* discard,
    const double* policy_row, double* __restrict vel) {
  using numerics::LoadLanes;
  using Pack = numerics::LaneVector<W>;
  const Pack cs = LoadLanes<W>(content_size + l0);
  const Pack ret = LoadLanes<W>(retention + l0);
  const Pack dis = LoadLanes<W>(discard + l0);
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t at = i * m + l0;
    numerics::StoreLanes<W>(
        vel + at,
        cs * (LoadLanes<W>(nwd + at) * LoadLanes<W>(policy_row + at) - ret +
              dis));
  }
}

// The per-output-node tail for lanes [l0, l0 + W): the non-finite latch
// bad[l] += λ − λ (+0.0 for finite λ, NaN otherwise, so a lane pre-filled
// with 0.0 stays 0.0 iff its column is all-finite), taken before the clip
// clears NaN, then the lane-pack transcription of
// Density1D::ClipAndNormalize + Normalize — same clip predicate, the
// trapezoid mass in Trapezoid()'s exact order (0.5·(f₀+fₙ₋₁), then the
// interior sum, then ·dx), and a per-element division by the mass — so
// each lane reproduces Density1D's result bit-for-bit. The end rows are
// clipped first so the interior rows clip and sum in one pass. A lane
// whose mass is ~0 gets failed[l] = 1.0 and keeps its clipped,
// unnormalized samples (Density1D's failure path returns before dividing).
// Every lane is processed; the result is stored into the output row `out`
// only for lanes with live[l] != 0, so a lane that left the sweep keeps
// its column of the caller's field.
template <std::size_t W>
__attribute__((always_inline)) inline void LatchClipAndNormalizeImpl(
    std::size_t nq, std::size_t m, std::size_t l0, const double* dx,
    const double* live, double* __restrict lam, double* __restrict out,
    double* __restrict bad, double* __restrict failed) {
  using numerics::LoadLanes;
  using numerics::StoreLanes;
  using Pack = numerics::LaneVector<W>;
  const Pack zero{};
  Pack latch = LoadLanes<W>(bad + l0);
  auto clip_row = [&](std::size_t i) __attribute__((always_inline)) {
    const Pack v = LoadLanes<W>(lam + i * m + l0);
    latch += v - v;
    const Pack clipped = v > zero ? v : zero;  // Also clears NaN.
    StoreLanes<W>(lam + i * m + l0, clipped);
    return clipped;
  };
  Pack sum = clip_row(0);
  sum = 0.5 * (sum + clip_row(nq - 1));
  for (std::size_t i = 1; i + 1 < nq; ++i) sum += clip_row(i);
  sum *= LoadLanes<W>(dx + l0);
  const Pack one = zero + 1.0;
  // Normalize's mass test, 1.0 where the lane's mass is usable.
  const Pack usable = numerics::GreaterLanes<W>(sum, zero + 1e-300);
  StoreLanes<W>(bad + l0, latch);
  StoreLanes<W>(failed + l0, one - usable);
  const Pack keep = LoadLanes<W>(live + l0);
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t at = i * m + l0;
    // Division (not reciprocal-multiply), as in Normalize(); failed
    // lanes keep their clipped samples, the spent quotient is discarded.
    const Pack clipped = LoadLanes<W>(lam + at);
    const Pack kept =
        numerics::SelectLanes<W>(usable, clipped / sum, clipped);
    StoreLanes<W>(lam + at, kept);
    StoreLanes<W>(out + at, numerics::SelectLanes<W>(
                                keep, kept, LoadLanes<W>(out + at)));
  }
}

// Runtime dispatch of the two per-node lane passes to lane packs.
MFGCP_BATCH_TARGET_CLONES
void DriftVelocity(std::size_t nq, std::size_t m, const double* content_size,
                   const double* nwd, const double* retention,
                   const double* discard, const double* policy_row,
                   double* __restrict vel) {
  numerics::ForEachLaneChunk(
      m, [&]<std::size_t W>(std::size_t l0) __attribute__((always_inline)) {
        DriftVelocityImpl<W>(nq, m, l0, content_size, nwd, retention, discard,
                             policy_row, vel);
      });
}

MFGCP_BATCH_TARGET_CLONES
void LatchClipAndNormalize(std::size_t nq, std::size_t m, const double* dx,
                           const double* live, double* __restrict lam,
                           double* __restrict out, double* __restrict bad,
                           double* __restrict failed) {
  numerics::ForEachLaneChunk(
      m, [&]<std::size_t W>(std::size_t l0) __attribute__((always_inline)) {
        LatchClipAndNormalizeImpl<W>(nq, m, l0, dx, live, lam, out, bad,
                                     failed);
      });
}

// Coupled mode's cross-lane pass (FpkBatchSolver::SweepInto's `coupled`):
// dt_sub times the divergence of the lane axis's face fluxes on the
// pre-substep densities, into `incr`. The face between lanes l − 1 and l
// carries the donor-cell advective flux at the mean of the two lanes'
// drifts plus the central diffusive flux; the end faces reflect. Added
// after the fused q-substep, it completes the unsplit explicit
// finite-volume step up to summation order.
void CoupledFpkTerms(std::size_t nq, std::size_t m,
                     const numerics::LaneAxis& axis, const double* lam,
                     double* __restrict incr) {
  const double dx = axis.dx;
  for (std::size_t i = 0; i < nq; ++i) {
    const double* row = lam + i * m;
    double* out = incr + i * m;
    std::fill(out, out + m, 0.0);
    for (std::size_t face = 1; face < m; ++face) {
      const double v_face = 0.5 * (axis.drift[face - 1] + axis.drift[face]);
      const double donor = v_face > 0.0 ? row[face - 1] : row[face];
      const double flux =
          v_face * donor - axis.diffusion * (row[face] - row[face - 1]) / dx;
      out[face - 1] -= flux / dx;
      out[face] += flux / dx;
    }
    for (std::size_t l = 0; l < m; ++l) out[l] *= axis.dt_sub;
  }
}

// Trapezoid weight of node i on an n-node axis.
inline double TrapezoidWeight(std::size_t i, std::size_t n) {
  return (i == 0 || i + 1 == n) ? 0.5 : 1.0;
}

// Coupled mode's output tail over the whole [q][h] surface: the
// divergence check, then numerics::ClipAndNormalize2D's arithmetic — the
// same clip, the 2-D trapezoid mass summed h-major as Trapezoid2D does,
// and a division by it — storing the row into `out`.
enum class CoupledTail { kOk, kDiverged, kMassLost };
CoupledTail CoupledClipAndNormalize(std::size_t nq, std::size_t m, double dq,
                                    double dh, double* __restrict lam,
                                    double* __restrict out) {
  const std::size_t size = nq * m;
  bool finite = true;
  for (std::size_t k = 0; k < size; ++k) {
    finite = finite && std::isfinite(lam[k]);
    if (!(lam[k] > 0.0)) lam[k] = 0.0;
  }
  if (!finite) return CoupledTail::kDiverged;
  double mass = 0.0;
  for (std::size_t l = 0; l < m; ++l) {
    const double w = TrapezoidWeight(l, m);
    for (std::size_t i = 0; i < nq; ++i) {
      mass += w * TrapezoidWeight(i, nq) * lam[i * m + l];
    }
  }
  mass = mass * dh * dq;
  if (!(mass > 1e-300)) return CoupledTail::kMassLost;
  for (std::size_t k = 0; k < size; ++k) {
    lam[k] /= mass;
    out[k] = lam[k];
  }
  return CoupledTail::kOk;
}

}  // namespace

void FpkBatchSolver::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  // Grow-only: shrinking would free the lane params' profile storage that
  // the next wider block copies into again.
  if (params_.size() < num_lanes) params_.resize(num_lanes);
  grids_.resize(num_lanes);
  content_size_.resize(num_lanes);
  dx_.resize(num_lanes);
  dt_out_.resize(num_lanes);
  dt_sub_.resize(num_lanes);
  diffusion_.resize(num_lanes);
  substeps_.resize(num_lanes);
  d_over_dx_.resize(num_lanes);
  dt_sub_over_dx_.resize(num_lanes);
  dt_out_over_dx_.resize(num_lanes);
}

common::Status FpkBatchSolver::BindLane(std::size_t lane,
                                        const MfgParams& params) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  const std::size_t nq = q_grid.size();
  const std::size_t nt = params.grid.num_time_steps;
  if (bound_lanes_ == 0) {
    nq_ = nq;
    nt_ = nt;
    implicit_ = params.grid.implicit_fpk;
    neg_w1_avail_.Assign(nq, num_lanes_, 0.0);
    retention_.Assign(nt, num_lanes_, 0.0);
    discard_.Assign(nt, num_lanes_, 0.0);
  } else if (nq != nq_ || nt != nt_) {
    return common::Status::InvalidArgument(
        "batch lanes must share the grid shape");
  } else if (params.grid.implicit_fpk != implicit_) {
    return common::Status::InvalidArgument(
        "batch lanes must share the FPK stepping scheme");
  }
  ++bound_lanes_;

  params_[lane] = params;
  grids_[lane] = q_grid;
  for (std::size_t i = 0; i < nq; ++i) {
    neg_w1_avail_.at(i, lane) =
        -params.dynamics.w1 * params.ControlAvailability(q_grid.x(i));
  }
  // The per-time-node drift constants (one std::pow each), tabulated once
  // per bind instead of once per sweep.
  for (std::size_t n = 0; n < nt; ++n) {
    retention_.at(n, lane) = params.dynamics.w2 * params.PopularityAt(n);
    discard_.at(n, lane) =
        params.dynamics.w3 *
        std::pow(params.dynamics.xi, params.TimelinessAt(n));
  }
  content_size_[lane] = params.content_size;
  dx_[lane] = q_grid.dx();
  dt_out_[lane] = params.TimeStep();
  const double diffusion =
      0.5 * params.dynamics.rho_q * params.dynamics.rho_q;
  diffusion_[lane] = diffusion;
  const double stable_dt = numerics::StableTimeStep(
      q_grid.dx(), params.MaxAbsDriftSpeed(), diffusion,
      params.grid.cfl_safety);
  substeps_[lane] = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(dt_out_[lane] / stable_dt)));
  dt_sub_[lane] =
      dt_out_[lane] / static_cast<double>(substeps_[lane]);
  // Once-per-bind reciprocal hoists, per lane.
  d_over_dx_[lane] = diffusion / dx_[lane];
  dt_sub_over_dx_[lane] = dt_sub_[lane] / dx_[lane];
  dt_out_over_dx_[lane] = dt_out_[lane] / dx_[lane];
  return common::Status::Ok();
}

common::Status FpkBatchSolver::MakeInitialDensityInto(
    std::size_t lane, numerics::Density1D& out) const {
  const MfgParams& params = params_[lane];
  return numerics::Density1D::TruncatedGaussianInto(
      grids_[lane], params.init_mean_frac * params.content_size,
      params.init_std_frac * params.content_size, out);
}

void FpkBatchSolver::SolveInto(std::span<LaneIo> lanes, Workspace& ws) const {
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  const std::size_t nt = nt_;
  ws.io_alive.assign(m, 0);
  // No fill: only the running lanes' columns are read for a result.
  ws.io_policy.Reshape((nt + 1) * nq, m);
  ws.io_density.Reshape((nt + 1) * nq, m);
  double* policy = ws.io_policy.data();
  double* density = ws.io_density.data();
  for (std::size_t l = 0; l < m; ++l) {
    LaneIo& lane = lanes[l];
    if (!lane.active) continue;
    lane.status = common::Status::Ok();
    // Per-lane validation, as in the one-lane FpkSolver1D::SolveInto.
    if (!(lane.initial->grid() == grids_[l])) {
      lane.status = common::Status::InvalidArgument(
          "initial density grid does not match the solver grid");
      continue;
    }
    if (lane.policy->size() != nt + 1) {
      lane.status = common::Status::InvalidArgument(
          "policy must have num_time_steps + 1 slices");
      continue;
    }
    if (lane.policy->cols() != nq) {
      lane.status =
          common::Status::InvalidArgument("policy slice size mismatch");
      continue;
    }
    const double* init = lane.initial->values().data();
    for (std::size_t i = 0; i < nq; ++i) density[i * m + l] = init[i];
    const double* x = lane.policy->data();
    for (std::size_t k = 0; k < (nt + 1) * nq; ++k) policy[k * m + l] = x[k];
    ws.io_alive[l] = 1;
  }
  SweepInto(policy, density, ws.io_alive, ws);
  for (std::size_t l = 0; l < m; ++l) {
    LaneIo& lane = lanes[l];
    if (!lane.active || !lane.status.ok()) continue;
    if (ws.io_alive[l] == 0) {
      lane.status = ws.status[l];
      continue;
    }
    WriteLaneInto(l, density, *lane.solution);
  }
}

void FpkBatchSolver::WriteLaneInto(std::size_t lane, const double* densities,
                                   FpkSolution& out) const {
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  const std::size_t nt = nt_;
  out.q_grid = grids_[lane];
  out.dt = dt_out_[lane];
  const bool reuse = out.densities.size() == nt + 1 &&
                     out.densities.front().grid() == grids_[lane];
  if (!reuse) {
    out.densities.clear();
    out.densities.reserve(nt + 1);
  }
  for (std::size_t n = 0; n <= nt; ++n) {
    const double* row = densities + n * nq * m + lane;
    if (!reuse) {
      std::vector<double> values(nq);
      for (std::size_t i = 0; i < nq; ++i) values[i] = row[i * m];
      // Cannot fail: the sample count is the grid's.
      out.densities.push_back(numerics::Density1D::FromSamplesUnchecked(
                                  grids_[lane], std::move(values))
                                  .value());
      continue;
    }
    double* __restrict values = out.densities[n].mutable_values().data();
    for (std::size_t i = 0; i < nq; ++i) values[i] = row[i * m];
  }
}

void FpkBatchSolver::SweepInto(const double* policy, double* densities,
                               std::span<std::uint8_t> alive, Workspace& ws,
                               const numerics::LaneAxis* coupled) const {
  MFG_OBS_SPAN("FpkBatch.SolveInto");
  std::size_t timed_lanes = 0;  // One core.fpk.sweeps count each.
  MFG_OBS_SCOPED_LANE_TIMER("core.fpk.sweep_seconds", timed_lanes);
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  const std::size_t nt = nt_;
  const std::size_t row_size = nq * m;

  ws.lane.Assign(kLaneRows, m, 0.0);
  ws.status.resize(m);
  double* update = ws.lane[kUpdate].data();
  double* bad = ws.lane[kBad].data();
  double* live = ws.lane[kLive].data();
  double* clip_failed = ws.lane[kClipFailed].data();
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
    if (coupled == nullptr) {  // A coupled sweep counts as one 2-D sweep.
      MFG_OBS_COUNT("core.fpk.sweeps", 1);
      ++timed_lanes;
    }
    max_substeps = std::max(max_substeps, substeps_[l]);
  }

  // λ(t_0) is row 0 of the caller's field; the running density is copied
  // out of it for every lane (dead lanes evolve harmlessly, masked).
  ws.lambda.Assign(nq, m, 0.0);
  ws.velocity.Assign(nq, m, 0.0);
  std::copy(densities, densities + row_size, ws.lambda.data());

  double* lam = ws.lambda.data();
  double* vel = ws.velocity.data();
  const double* nwd = neg_w1_avail_.data();
  const double* d_dx = d_over_dx_.data();
  const double* dts_dx = dt_sub_over_dx_.data();
  const double* dto_dx = dt_out_over_dx_.data();
  if (coupled != nullptr) {
    max_substeps = coupled->substeps;
    double* shared_dts_dx = ws.lane[kCoupledDtsDx].data();
    for (std::size_t l = 0; l < m; ++l) {
      shared_dts_dx[l] = coupled->dt_sub / dx_[l];
      update[l] = alive[l] ? 1.0 : 0.0;
    }
    dts_dx = shared_dts_dx;
    ws.coupled.Reshape(nq, m);
  }

  for (std::size_t n = 0; n < nt; ++n) {
    for (std::size_t l = 0; l < m; ++l) live[l] = alive[l] ? 1.0 : 0.0;
    // Drift under the node-n policy row, at unit stride across lanes.
    DriftVelocity(nq, m, content_size_.data(), nwd, retention_[n].data(),
                  discard_[n].data(), policy + n * row_size, vel);

    if (implicit_) {
      ws.system.lower.Assign(nq, m, 0.0);
      ws.system.diag.Assign(nq, m, 1.0);
      ws.system.upper.Assign(nq, m, 0.0);
      ws.system.rhs.Assign(nq, m, 0.0);
      double* rh = ws.system.rhs.data();
      for (std::size_t k = 0; k < nq * m; ++k) rh[k] = lam[k];
      AssembleImplicitSystem(nq, m, vel, d_dx, dto_dx,
                             ws.system.lower.data(), ws.system.diag.data(),
                             ws.system.upper.data());
      ws.singular_row.assign(m, -1);
      numerics::SolveTridiagonalBatchInto(ws.system, ws.tridiagonal,
                                          ws.lambda, ws.singular_row);
      lam = ws.lambda.data();  // Assign may have (first call) reallocated.
      for (std::size_t l = 0; l < m; ++l) {
        if (alive[l] == 0 || ws.singular_row[l] < 0) continue;
        ws.status[l] = common::Status::NumericalError(
            "singular pivot at row " + std::to_string(ws.singular_row[l]));
        alive[l] = 0;
        live[l] = 0.0;
      }
    } else {
      for (std::size_t sub = 0; sub < max_substeps; ++sub) {
        if (coupled == nullptr) {
          for (std::size_t l = 0; l < m; ++l) {
            update[l] = (alive[l] != 0 && sub < substeps_[l]) ? 1.0 : 0.0;
          }
          FusedFpkSubstep(nq, m, vel, d_dx, dts_dx, update, lam);
          continue;
        }
        // Coupled: the h-fluxes read the pre-substep densities.
        CoupledFpkTerms(nq, m, *coupled, lam, ws.coupled.data());
        FusedFpkSubstep(nq, m, vel, d_dx, dts_dx, update, lam);
        const double* incr = ws.coupled.data();
        for (std::size_t k = 0; k < row_size; ++k) lam[k] += incr[k];
      }
    }

    if (coupled != nullptr) {
      switch (CoupledClipAndNormalize(nq, m, dx_[0], coupled->dx, lam,
                                      densities + (n + 1) * row_size)) {
        case CoupledTail::kOk:
          continue;
        case CoupledTail::kDiverged:
          return drop_all(common::Status::NumericalError(
              "2-D FPK density diverged at time node " + std::to_string(n)));
        case CoupledTail::kMassLost:
          return drop_all(
              common::Status::NumericalError("2-D density mass is ~0"));
      }
    }

    // Divergence latch, clip and normalize in one lane-parallel pass that
    // also stores each live lane's row n + 1 of the caller's field. The
    // explicit scheme checks once per output node rather than per substep
    // (the HjbBatchSolver argument: λ − c·(flux difference) is non-finite
    // whenever λ is, and the select keeps a masked lane's bits, so a
    // non-finite density never turns finite again within the node) and
    // reports the node where it diverged. A lane whose mass underflows
    // keeps its clipped row and drops out.
    std::fill(bad, bad + m, 0.0);
    LatchClipAndNormalize(nq, m, dx_.data(), live, lam,
                          densities + (n + 1) * row_size, bad, clip_failed);
    for (std::size_t l = 0; l < m; ++l) {
      if (!alive[l]) continue;
      if (bad[l] != 0.0) {
        MFG_FLIGHT_EVENT(kDivergence, obs::kFlightDivergenceFpk,
                         params_[l].content_id, static_cast<std::uint32_t>(n),
                         0.0, 0.0);
        ws.status[l] = common::Status::NumericalError(
            (implicit_ ? "implicit FPK diverged at time node "
                       : "FPK density diverged at time node ") +
            std::to_string(n));
        alive[l] = 0;
        continue;
      }
      if (clip_failed[l] != 0.0) {
        ws.status[l] = common::Status::NumericalError("density mass is ~0");
        alive[l] = 0;
      }
    }
  }

  if (coupled != nullptr) return;  // Not a content lane-sweep.
  for (std::size_t l = 0; l < m; ++l) {
    if (!alive[l]) continue;
    MFG_FLIGHT_EVENT(kFpkSweep, 0, params_[l].content_id, 0,
                     static_cast<double>(substeps_[l]),
                     obs::FlightMaxAbs(densities + nt * row_size + l, nq, m));
  }
}

}  // namespace mfg::core
