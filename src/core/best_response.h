#ifndef MFGCP_CORE_BEST_RESPONSE_H_
#define MFGCP_CORE_BEST_RESPONSE_H_

#include <vector>

#include "common/status.h"
#include "core/best_response_batch.h"
#include "core/fpk_solver.h"
#include "core/hjb_solver.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/density.h"

// Iterative best-response learning (Algorithm 2) for one content: the
// HJB ↔ FPK fixed point documented in best_response_batch.h, as a
// one-lane view of BatchBestResponseLearner. Fault sites are polled under
// the caller's ambient fault scope, so direct use outside an epoch never
// sees an injected fault.

namespace mfg::core {

class BestResponseLearner {
 public:
  // The batch learner's scratch at one lane. Every buffer is re-shaped in
  // place, so repeated solves on the same grid shape never touch the heap.
  using Workspace = BatchBestResponseLearner::Workspace;

  static common::StatusOr<BestResponseLearner> Create(const MfgParams& params);

  // Re-parameterizes the learner in place. Allocation-free when the grid
  // shape is unchanged. On failure the learner must be rebound again
  // before use.
  common::Status Rebind(const MfgParams& params);

  // Runs Alg. 2 from the params' initial density and a flat initial
  // policy guess of 0.5 (SolveInto with fresh storage).
  common::StatusOr<Equilibrium> Solve() const;

  // Same, but from an explicit initial density and initial policy guess
  // (a constant rate in [0, 1]). Used by the uniqueness property tests
  // (different starts -> same fixed point).
  common::StatusOr<Equilibrium> SolveFrom(const numerics::Density1D& initial,
                                          double initial_rate) const;

  // Hot-path counterpart of Solve(): writes the equilibrium into `out`,
  // reusing its storage and `workspace` scratch. Zero heap allocations
  // once both have warmed up on the current grid shape.
  common::Status SolveInto(Workspace& workspace, Equilibrium& out) const;

  // SolveFrom's in-place counterpart.
  common::Status SolveFromInto(const numerics::Density1D& initial,
                               double initial_rate, Workspace& workspace,
                               Equilibrium& out) const;

  const MfgParams& params() const { return params_; }

 private:
  BestResponseLearner() = default;

  // Runs `job` (active, out set) on the one-lane learner.
  common::Status Run(BatchBestResponseLearner::LaneJob& job,
                     Workspace& workspace) const;

  MfgParams params_;
  BatchBestResponseLearner batch_;  // Bound at one lane.
};

// Accumulates the generic player's realized utility along the equilibrium:
// integrates U(t, x*(t, q(t)), q(t)) over [0, T] for a cache trajectory
// started at q0 and driven by the equilibrium policy (deterministic drift;
// the Brownian term averages out). Returns per-time-node cumulative
// utility and the trajectory itself. Used by Figs. 9-13.
struct EquilibriumRollout {
  std::vector<double> time;         // t_n.
  std::vector<double> cache_state;  // q(t_n).
  std::vector<double> utility;      // Instantaneous U(t_n).
  std::vector<double> cumulative_utility;
  std::vector<double> trading_income;
  std::vector<double> staleness_cost;
  std::vector<double> sharing_benefit;
  std::vector<double> cumulative_trading_income;
};

common::StatusOr<EquilibriumRollout> RolloutEquilibrium(
    const MfgParams& params, const Equilibrium& equilibrium, double q0);

}  // namespace mfg::core

#endif  // MFGCP_CORE_BEST_RESPONSE_H_
