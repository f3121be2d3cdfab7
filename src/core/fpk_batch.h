#ifndef MFGCP_CORE_FPK_BATCH_H_
#define MFGCP_CORE_FPK_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"
#include "numerics/tridiagonal.h"

// Forward Fokker–Planck–Kolmogorov solver (Eq. 15), content-batched (see
// hjb_batch.h for the batching model): evolves the mean-field density of
// the cache state under the population's caching policy,
//
//   ∂_t λ + ∂_q [ b(t, q) λ ] − ½ ϱ_q² ∂²_qq λ = 0,
//   b(t, q) = Q_k ( −w1 x(t, q) − w2 Π + w3 ξ^L ),
//
// with reflecting (zero-flux) boundaries at q = 0 and q = Q_k — cache
// space is physically confined to [0, Q_k]. The scheme is finite-volume:
// advective face fluxes use donor-cell upwinding, diffusive face fluxes
// are central, and boundary faces carry zero flux, so the discrete total
// mass is conserved to rounding. A guard clips negative undershoot and
// renormalizes each output node (Density1D::ClipAndNormalize, per lane).
// The scalar FpkSolver1D is the one-lane view of this solver.
//
// The sweep core (SweepInto) reads the policy rows of a [time][node][lane]
// field and writes the λ rows of another at unit stride; the clip guard
// runs lane-parallel in one pass with the per-node divergence latch and
// the row store. SolveInto's per-lane LaneIo entry point is a gather →
// SweepInto → scatter adapter.
//
// Coupled mode (SweepInto's `coupled` axis) runs the 2-D (h, q) model:
// lane l is channel node h_l, the h-face fluxes are one cross-lane pass
// per substep around the unchanged fused q-substep, and the clip guard
// normalizes the joint 2-D trapezoid mass (see numerics::LaneAxis). The
// epoch planner never sets it.
//
// Both stepping schemes are supported; all bound lanes must share
// grid.implicit_fpk (they derive from one base_params on the epoch path).
// A lane that diverges or hits a singular implicit pivot records its error
// in its status and drops out of the batch; its output densities are then
// unspecified.

namespace mfg::core {

struct FpkSolution {
  numerics::Grid1D q_grid;
  double dt = 0.0;
  std::vector<numerics::Density1D> densities;  // λ(t_n, ·), n = 0..Nt.

  std::size_t num_time_nodes() const { return densities.size(); }
};

class FpkBatchSolver {
 public:
  struct Workspace {
    numerics::BatchField lambda;
    numerics::BatchField velocity;
    numerics::BatchTridiagonalSystem system;  // Implicit stepping only.
    numerics::BatchTridiagonalWorkspace tridiagonal;
    std::vector<std::ptrdiff_t> singular_row;
    // Per-lane scratch as one [field][lane] table (one allocation): the
    // substep mask, the divergence and clip latches and the live-lane
    // store mask (rows listed in the .cc).
    numerics::BatchField lane;
    // SweepInto's per-lane error for every lane it drops.
    std::vector<common::Status> status;
    // Coupled mode only: the substep's [node][lane] h-flux increment.
    numerics::BatchField coupled;
    // LaneIo adapter only: the lanes it runs and the gathered
    // [time][node][lane] policy and density fields.
    std::vector<std::uint8_t> io_alive;
    numerics::BatchField io_policy;
    numerics::BatchField io_density;
  };

  struct LaneIo {
    const numerics::Density1D* initial = nullptr;
    const numerics::TimeField2D* policy = nullptr;
    FpkSolution* solution = nullptr;
    bool active = false;
    common::Status status;
  };

  FpkBatchSolver() = default;

  // See HjbBatchSolver::Reset/BindLane; identical contract.
  void Reset(std::size_t num_lanes);
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  std::size_t num_lanes() const { return num_lanes_; }
  const numerics::Grid1D& grid(std::size_t lane) const { return grids_[lane]; }

  // Makes lane `lane`'s initial density (the truncated Gaussian with mean
  // init_mean_frac·Q_k and std init_std_frac·Q_k).
  common::Status MakeInitialDensityInto(std::size_t lane,
                                        numerics::Density1D& out) const;

  void SolveInto(std::span<LaneIo> lanes, Workspace& ws) const;

  // The sweep itself on [time][node][lane] fields ((nt + 1)·nq·lanes
  // doubles, node i of lane l at time node n at [(n·nq + i)·lanes + l]):
  // reads every row of `policy` and row 0 of `densities` (λ(t_0)), and
  // writes rows 1..nt of `densities` for the lanes with alive[l] != 0 —
  // only theirs: another lane's column is left as it was. A lane that
  // fails gets alive[l] cleared, its error in ws.status[l], and an
  // unspecified column.
  //
  // Coupled (h, q) mode when `coupled` is non-null: the lanes are the
  // nodes of that axis (the channel h) and must be bound with the explicit
  // scheme. Every lane takes the axis's substep count and dt_sub; each
  // substep adds, from the pre-substep densities, dt_sub times the h-face
  // flux divergence (donor-cell drift plus central diffusion, reflecting
  // end faces); and each output row is clipped and normalized to unit 2-D
  // trapezoid mass over (h, q) jointly. A lane that fails takes every lane
  // down with it, and the sweep counts no per-lane core.fpk.* work.
  void SweepInto(const double* policy, double* densities,
                 std::span<std::uint8_t> alive, Workspace& ws,
                 const numerics::LaneAxis* coupled = nullptr) const;

  // Copies lane `lane`'s column of a [time][node][lane] density field into
  // `out` (grid, dt and every λ row), reusing `out`'s densities when they
  // already have the lane's grid.
  void WriteLaneInto(std::size_t lane, const double* densities,
                     FpkSolution& out) const;

 private:
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  std::size_t nt_ = 0;
  bool implicit_ = false;

  std::vector<MfgParams> params_;
  std::vector<numerics::Grid1D> grids_;

  numerics::BatchField neg_w1_avail_;
  // Per-(time node, lane) drift constants w2·Π(t_n) and w3·ξ^L(t_n),
  // [node][lane] layout over nodes 0..nt−1.
  numerics::BatchField retention_;
  numerics::BatchField discard_;

  std::vector<double> content_size_;
  std::vector<double> dx_;
  std::vector<double> dt_out_;
  std::vector<double> dt_sub_;
  std::vector<double> diffusion_;
  std::vector<std::size_t> substeps_;
  // Per-lane reciprocals of the per-element divisors, hoisted to bind time
  // (the substep loop is division-throughput-bound otherwise).
  std::vector<double> d_over_dx_;       // diffusion / dx.
  std::vector<double> dt_sub_over_dx_;  // dt_sub / dx.
  std::vector<double> dt_out_over_dx_;  // dt_out / dx (implicit assembly).
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_FPK_BATCH_H_
