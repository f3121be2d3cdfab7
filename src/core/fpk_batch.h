#ifndef MFGCP_CORE_FPK_BATCH_H_
#define MFGCP_CORE_FPK_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/fpk_solver.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"
#include "numerics/tridiagonal.h"

// Content-batched counterpart of FpkSolver1D (see hjb_batch.h for the
// batching model). Lane l runs the scalar forward sweep expression tree on
// its own density/policy, so active lanes reproduce FpkSolver1D::SolveInto
// bit-for-bit. The sweep core (SweepInto) reads the policy rows of a
// [time][node][lane] field and writes the λ rows of another at unit
// stride; the ClipAndNormalize guard runs lane-parallel (the scalar
// accumulation order per lane), in one pass with the per-node divergence
// latch and the row store. SolveInto's per-lane LaneIo entry point is a
// gather → SweepInto → scatter adapter.
//
// Both stepping schemes are supported; all bound lanes must share
// grid.implicit_fpk (they derive from one base_params on the epoch path).
// A lane that diverges or hits a singular implicit pivot records the
// scalar solver's error in its status and drops out of the batch; its
// output densities are then unspecified.

namespace mfg::core {

class FpkBatchSolver {
 public:
  struct Workspace {
    numerics::BatchField lambda;
    numerics::BatchField velocity;
    // Runtime-lane-count FusedFpkSubstep only: the flux through the
    // current row's left face, carried across the row loop (m doubles).
    std::vector<double> face_flux;
    numerics::BatchTridiagonalSystem system;  // Implicit stepping only.
    numerics::BatchTridiagonalWorkspace tridiagonal;
    std::vector<std::ptrdiff_t> singular_row;
    // Double-wide masks, as in HjbBatchSolver::Workspace: the substep
    // update select and the divergence latch vectorize only when the mask
    // lanes match the double data width.
    std::vector<double> update;
    std::vector<double> bad;
    std::vector<double> live;  // 1.0 while the lane stores its rows.
    // 1.0 where the clip-and-normalize guard found a lane's mass ~0.
    std::vector<double> clip_failed;
    // SweepInto's per-lane error for every lane it drops.
    std::vector<common::Status> status;
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

  // Makes lane `lane`'s initial density (scalar TruncatedGaussianInto).
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
  void SweepInto(const double* policy, double* densities,
                 std::span<std::uint8_t> alive, Workspace& ws) const;

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
  // Per-lane reciprocals of the per-element divisors, the same expressions
  // the scalar FpkSolver1D::SolveInto hoists once per solve (bit-identity;
  // the substep loop is division-throughput-bound otherwise).
  std::vector<double> d_over_dx_;       // diffusion / dx.
  std::vector<double> dt_sub_over_dx_;  // dt_sub / dx.
  std::vector<double> dt_out_over_dx_;  // dt_out / dx (implicit assembly).
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_FPK_BATCH_H_
