#ifndef MFGCP_CORE_HJB_SOLVER_2D_H_
#define MFGCP_CORE_HJB_SOLVER_2D_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/hjb_batch.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"

// Full 2-D Hamilton–Jacobi–Bellman solver over the paper's complete state
// S = (h, q) — channel fading and remaining cache space (Eq. 20 with both
// coordinates active):
//
//   ∂_t V + ½ ς_h (υ_h − h) ∂_h V + ½ ϱ_h² ∂²_hh V
//         + Q_k(−w1 a(q) x − w2 Π + w3 ξ^L) ∂_q V + ½ ϱ_q² ∂²_qq V
//         + U(t, x, h, q, λ) = 0,        V(T, ·, ·) = 0.
//
// The channel enters the utility through the downlink rate
// H(h) = MfgParams::EdgeRateAt(h): better fading -> faster service ->
// lower staleness. Theorem 1's maximizer is unchanged (the control only
// enters the q-drift and the download term), evaluated from ∂_q V.
//
// The 1-D solver (hjb_solver.h) is this equation with h frozen at υ_h;
// the 2-D/1-D consistency is covered by tests and the ablation bench.
//
// It runs on the 1-D batch solver: h-node ih is lane ih of an
// HjbBatchSolver bound with ChannelLaneParams(params, h_ih), so the q-terms
// are the fused 1-D substep, and the h-terms are the sweep's coupled mode
// (HjbBatchSolver::Fields::coupled) on the channel axis MakeChannelAxis
// builds. Its fields are [time][q][h] BatchFields, transposed to the
// public [time][h·q] layout once per SolveInto.

namespace mfg::core {

// Row-major (h, q) fields per output time node: index = ih * nq + iq.
struct Hjb2DSolution {
  numerics::Grid1D h_grid;
  numerics::Grid1D q_grid;
  double dt = 0.0;
  numerics::TimeField2D value;   // [time][h*q].
  numerics::TimeField2D policy;  // [time][h*q].

  std::size_t num_time_nodes() const { return value.size(); }
  std::size_t Index(std::size_t ih, std::size_t iq) const {
    return ih * q_grid.size() + iq;
  }

  // The policy slice x*(t_n, h = h_fix, ·) on the q grid (nearest h node).
  std::vector<double> PolicyAtH(std::size_t n, double h_fix) const;
};

// The params lane ih of a 2-D solver binds: `params` at the downlink rate
// max(EdgeRateAt(h), 1e-3), with the scalar popularity, timeliness and
// request rate (the 2-D model has no workload profiles) and the explicit
// FPK scheme.
MfgParams ChannelLaneParams(const MfgParams& params, double h);

// The channel axis of the 2-D model as coupled lanes: the OU drift
// ½ ς_h (υ_h − h) and diffusion ½ ϱ_h² on the h grid, and the explicit
// substep count every lane shares, from the combined q + h CFL bound.
numerics::LaneAxis MakeChannelAxis(const MfgParams& params,
                                   const numerics::Grid1D& h_grid,
                                   const numerics::Grid1D& q_grid);

// Transposes (nt + 1) rows of a [time][q][h] field into [time][h·q].
void TransposeToHq(const numerics::BatchField& field, std::size_t nq,
                   numerics::TimeField2D& out);

class HjbSolver2D {
 public:
  // Scratch reused across Solve calls (sized on first use).
  struct Workspace {
    HjbBatchSolver::Workspace batch;
    std::vector<MeanFieldQuantities> mean_field;  // [time][h lane].
    std::vector<std::uint8_t> alive;
    numerics::BatchField value, policy;  // SolveInto's [time][q][h] output.
  };

  static common::StatusOr<HjbSolver2D> Create(const MfgParams& params);

  // Solves backward from V(T) = 0 under the per-time mean-field
  // quantities (num_time_steps + 1 entries).
  common::StatusOr<Hjb2DSolution> Solve(
      const std::vector<MeanFieldQuantities>& mean_field) const;

  // In-place variant writing into `solution`, reusing its field storage and
  // the caller's workspace.
  common::Status SolveInto(const std::vector<MeanFieldQuantities>& mean_field,
                           Workspace& workspace,
                           Hjb2DSolution& solution) const;

  // The sweep on caller [time][q][h] fields (`fields`, whose `coupled` it
  // sets): the batch-resident form BestResponseLearner2D relaxes through
  // (Fields::gamma). Fails with the sweep's error if the surface diverges.
  common::Status SweepInto(std::span<const MeanFieldQuantities> mean_field,
                           HjbBatchSolver::Fields fields,
                           Workspace& workspace) const;

  // Running utility at state (h, q) with control x: the 1-D utility with
  // the h-dependent downlink rate.
  common::StatusOr<double> RunningUtility(double x, double h, double q,
                                          const MeanFieldQuantities& mf) const;

  const numerics::Grid1D& h_grid() const { return h_grid_; }
  const numerics::Grid1D& q_grid() const { return q_grid_; }

 private:
  HjbSolver2D(const MfgParams& params, const numerics::Grid1D& h_grid,
              const numerics::Grid1D& q_grid,
              const econ::CaseModel& case_model)
      : params_(params),
        h_grid_(h_grid),
        q_grid_(q_grid),
        case_model_(case_model) {}

  MfgParams params_;
  numerics::Grid1D h_grid_;
  numerics::Grid1D q_grid_;
  econ::CaseModel case_model_;
  HjbBatchSolver batch_;  // Lane ih is h node ih.
  numerics::LaneAxis channel_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_HJB_SOLVER_2D_H_
