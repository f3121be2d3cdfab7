#ifndef MFGCP_CORE_FPK_SOLVER_H_
#define MFGCP_CORE_FPK_SOLVER_H_

#include <vector>

#include "common/status.h"
#include "core/fpk_batch.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"

// Forward FPK solver for one content (Eq. 15; the equation and the
// finite-volume scheme are documented in fpk_batch.h). A one-lane view of
// FpkBatchSolver: at one lane the batch's [time][node][lane] policy field
// is exactly TimeField2D's [time][node] layout, so the sweep reads the
// caller's policy in place; the λ rows land in a workspace field and are
// copied into the solution's densities. SolveInto reuses a caller
// Workspace and the previous solution's density storage, so the steady
// state of a repeated solve performs no heap allocation.

namespace mfg::core {

class FpkSolver1D {
 public:
  // Scratch reused across SolveInto calls (sized on first use).
  struct Workspace {
    FpkBatchSolver::Workspace batch;
    numerics::BatchField densities;  // λ rows, [time][node].
  };

  static common::StatusOr<FpkSolver1D> Create(const MfgParams& params);

  // Re-parameterizes the solver in place (see HjbSolver1D::Rebind);
  // allocation-free when the grid shape is unchanged.
  common::Status Rebind(const MfgParams& params);

  // Evolves `initial` forward under `policy` (policy[n][i] = x at time
  // node n, q node i; needs num_time_steps + 1 slices — the slice at node
  // n drives the interval [t_n, t_{n+1})).
  common::StatusOr<FpkSolution> Solve(const numerics::Density1D& initial,
                                      const numerics::TimeField2D& policy)
      const;

  // Nested-vector convenience overload (tests, benches); rejects ragged
  // tables, then delegates to the flat-field path.
  common::StatusOr<FpkSolution> Solve(
      const numerics::Density1D& initial,
      const std::vector<std::vector<double>>& policy) const;

  // In-place variant writing into `solution`; when `solution` already holds
  // a trajectory of matching shape its density storage is reused row by
  // row, making repeated calls allocation-free.
  common::Status SolveInto(const numerics::Density1D& initial,
                           const numerics::TimeField2D& policy,
                           Workspace& workspace, FpkSolution& solution) const;

  // The initial density prescribed by the params (truncated Gaussian with
  // mean init_mean_frac·Q_k and std init_std_frac·Q_k).
  common::StatusOr<numerics::Density1D> MakeInitialDensity() const;

  // In-place variant reusing `out`'s sample storage; allocation-free once
  // `out` has held a density of the solver's grid size.
  common::Status MakeInitialDensityInto(numerics::Density1D& out) const;

 private:
  FpkSolver1D() = default;

  MfgParams params_;
  numerics::Grid1D q_grid_;
  FpkBatchSolver batch_;  // Bound at one lane.
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_FPK_SOLVER_H_
