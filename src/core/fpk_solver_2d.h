#ifndef MFGCP_CORE_FPK_SOLVER_2D_H_
#define MFGCP_CORE_FPK_SOLVER_2D_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/fpk_batch.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"

// Full 2-D Fokker–Planck–Kolmogorov solver over (h, q) — the paper's
// Eq. (15) with both state coordinates:
//
//   ∂_t λ + ∂_h[ ½ ς_h (υ_h − h) λ ] + ∂_q[ b(t, q) λ ]
//         − ½ ϱ_h² ∂²_hh λ − ½ ϱ_q² ∂²_qq λ = 0,
//
// finite-volume with donor-cell upwind advective fluxes and central
// diffusive fluxes in each dimension, zero-flux (reflecting) boundaries on
// all four sides — total probability mass is conserved to rounding
// (tested).
//
// It runs on the 1-D batch solver, as HjbSolver2D does: h-node ih is lane
// ih of an FpkBatchSolver, the q-fluxes are the fused 1-D substep, and the
// h-fluxes and the joint clip-and-normalize are the sweep's coupled mode on
// the channel axis (MakeChannelAxis). The public trajectory is one
// row-major TimeField2D (index = ih * nq + iq), transposed from the
// sweep's [time][q][h] BatchField once per SolveInto.

namespace mfg::core {

struct Fpk2DSolution {
  numerics::Grid1D h_grid;
  numerics::Grid1D q_grid;
  double dt = 0.0;
  // densities[n] is the row-major (h, q) field at time node n.
  numerics::TimeField2D densities;

  std::size_t num_time_nodes() const { return densities.size(); }

  // Trapezoid mass of the field at node n (≈ 1).
  double Mass(std::size_t n) const;

  // q-marginal ∫ λ dh at node n, a density over the q grid.
  std::vector<double> QMarginal(std::size_t n) const;

  // h-marginal ∫ λ dq at node n.
  std::vector<double> HMarginal(std::size_t n) const;
};

class FpkSolver2D {
 public:
  // Scratch reused across Solve calls (sized on first use).
  struct Workspace {
    FpkBatchSolver::Workspace batch;
    std::vector<std::uint8_t> alive;
    numerics::BatchField policy, density;  // SolveInto's [time][q][h].
  };

  static common::StatusOr<FpkSolver2D> Create(const MfgParams& params);

  // Initial density: (OU stationary Gaussian in h) × (truncated Gaussian
  // in q per the params' init_mean_frac/init_std_frac), normalized.
  common::StatusOr<std::vector<double>> MakeInitialDensity() const;

  // Evolves `initial` forward under the policy (policy[n] is a row-major
  // (h, q) field; num_time_steps + 1 slices).
  common::StatusOr<Fpk2DSolution> Solve(
      const std::vector<double>& initial,
      const numerics::TimeField2D& policy) const;

  // Nested-vector convenience overload (tests, benches); rejects ragged
  // tables, then delegates to the flat-field path.
  common::StatusOr<Fpk2DSolution> Solve(
      const std::vector<double>& initial,
      const std::vector<std::vector<double>>& policy) const;

  // In-place variant writing into `solution`, reusing its trajectory
  // storage and the caller's workspace.
  common::Status SolveInto(const std::vector<double>& initial,
                           const numerics::TimeField2D& policy,
                           Workspace& workspace, Fpk2DSolution& solution) const;

  // The sweep on caller [time][q][h] fields: reads every row of `policy`
  // and row 0 of `densities`, writes rows 1..nt. The batch-resident form
  // BestResponseLearner2D runs.
  common::Status SweepInto(const double* policy, double* densities,
                           Workspace& workspace) const;

  const numerics::Grid1D& h_grid() const { return h_grid_; }
  const numerics::Grid1D& q_grid() const { return q_grid_; }

 private:
  FpkSolver2D(const MfgParams& params, const numerics::Grid1D& h_grid,
              const numerics::Grid1D& q_grid)
      : params_(params), h_grid_(h_grid), q_grid_(q_grid) {}

  MfgParams params_;
  numerics::Grid1D h_grid_;
  numerics::Grid1D q_grid_;
  FpkBatchSolver batch_;  // Lane ih is h node ih.
  numerics::LaneAxis channel_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_FPK_SOLVER_2D_H_
