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
// bit-for-bit. The ClipAndNormalize guard runs lane-parallel in SoA layout
// (the scalar accumulation order per lane), in one pass with the per-node
// divergence latch; each output node then scatters the normalized row into
// the lane's Density1D — λ stays in the batch layout end-to-end, with no
// per-node gather-back.
//
// Both stepping schemes are supported; all bound lanes must share
// grid.implicit_fpk (they derive from one base_params on the epoch path).
// A lane that diverges or hits a singular implicit pivot records the
// scalar solver's error in its LaneIo::status and drops out of the batch;
// its output densities are then unspecified (reused storage is not reset).

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
    std::vector<std::uint8_t> alive;
    // Double-wide masks, as in HjbBatchSolver::Workspace: the substep
    // update select and the divergence latch vectorize only when the mask
    // lanes match the double data width.
    std::vector<double> update;
    std::vector<double> bad;
    // Scratch for the lane-parallel clip-and-normalize guard.
    std::vector<double> clip_mass;
    std::vector<std::uint8_t> clip_failed;
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
