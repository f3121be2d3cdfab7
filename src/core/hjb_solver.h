#ifndef MFGCP_CORE_HJB_SOLVER_H_
#define MFGCP_CORE_HJB_SOLVER_H_

#include <vector>

#include "common/status.h"
#include "core/hjb_batch.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/grid.h"

// Backward HJB solver for one content (Eq. 20; the equation, Theorem 1's
// closed-form control and the discretization are documented in
// hjb_batch.h). A one-lane view of HjbBatchSolver: at one lane the batch's
// [time][node][lane] fields are exactly HjbSolution's [time][node] fields
// and its [time][lane] mean field is the per-node vector, so SolveInto
// sweeps straight into the caller's solution with no copies. SolveInto
// reuses a caller Workspace, so the steady state of a repeated solve
// performs no heap allocation.

namespace mfg::core {

class HjbSolver1D {
 public:
  // The batch sweep's scratch at one lane; reuse across SolveInto calls
  // keeps the backward sweep allocation-free.
  using Workspace = HjbBatchSolver::Workspace;

  static common::StatusOr<HjbSolver1D> Create(const MfgParams& params);

  // Re-parameterizes the solver in place: revalidates `params` and
  // recomputes every bind-time table, reusing their storage. Equivalent to
  // replacing *this with *Create(params) but allocation-free when the grid
  // shape is unchanged.
  common::Status Rebind(const MfgParams& params);

  // Solves backward from V(T) = 0 given the mean-field quantities at each
  // output time node (`mean_field.size()` must be num_time_steps + 1).
  common::StatusOr<HjbSolution> Solve(
      const std::vector<MeanFieldQuantities>& mean_field) const;

  // In-place variant writing into `solution` (reshaped; capacity is reused
  // at steady state) using `workspace` scratch. Zero allocations once both
  // have warmed up.
  common::Status SolveInto(const std::vector<MeanFieldQuantities>& mean_field,
                           Workspace& workspace, HjbSolution& solution) const;

  // Theorem 1's closed-form optimizer given the local value gradient and
  // the control availability a(q) (1 away from the full-cache boundary):
  //   x* = [ −( w4 + a·(η₂ Q_k / H_c + Q_k w1 ∂_q V) ) / (2 w5) ]₀¹.
  double OptimalRate(double dq_value, double availability = 1.0) const;

  // The running utility U(t, x, q) under the given mean-field quantities;
  // exposed for tests that check the HJB optimality property. The no-node
  // overload evaluates at time node 0 (constant workloads).
  common::StatusOr<double> RunningUtility(double x, double q,
                                          const MeanFieldQuantities& mf) const;
  common::StatusOr<double> RunningUtilityAtNode(
      double x, double q, const MeanFieldQuantities& mf,
      std::size_t node) const;

 private:
  HjbSolver1D() = default;

  MfgParams params_;
  numerics::Grid1D q_grid_;
  HjbBatchSolver batch_;  // Bound at one lane.
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_HJB_SOLVER_H_
