#include "core/equilibrium_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/fpk_solver.h"
#include "core/hjb_batch.h"
#include "numerics/quadrature.h"
#include "numerics/time_field.h"

namespace mfg::core {

double ExploitabilityReport::RelativeGap() const {
  return gap / std::max(std::fabs(best_response_value), 1.0);
}

namespace {

// One sweep of a one-lane HjbBatchSolver. At one lane the batch's
// [time][node][lane] fields are plain [time][node] tables, so `fields`
// points straight into TimeField2D storage. Returns the lane's error when
// the sweep drops it.
common::Status SweepOneLane(const HjbBatchSolver& solver,
                            const std::vector<MeanFieldQuantities>& mean_field,
                            const HjbBatchSolver::Fields& fields,
                            HjbBatchSolver::Workspace& ws) {
  std::uint8_t alive = 1;
  solver.SweepInto(mean_field, fields, std::span<std::uint8_t>(&alive, 1),
                   ws);
  return alive != 0 ? common::Status::Ok() : ws.status[0];
}

// The nested policy table as a [time][node] field, after the shape checks
// EvaluatePolicyValue documents.
common::StatusOr<numerics::TimeField2D> FlattenPolicy(
    const MfgParams& params, const std::vector<std::vector<double>>& policy) {
  const std::size_t nt = params.grid.num_time_steps;
  const std::size_t nq = params.grid.num_q_nodes;
  if (policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "policy must have num_time_steps + 1 slices");
  }
  numerics::TimeField2D flat(nt + 1, nq);
  for (std::size_t n = 0; n <= nt; ++n) {
    if (policy[n].size() != nq) {
      return common::Status::InvalidArgument("policy slice size mismatch");
    }
    std::copy(policy[n].begin(), policy[n].end(), flat[n].begin());
  }
  return flat;
}

// Exploitability of the [time][node] policy field `policy` (shape already
// checked): V_BR and V_x come from two sweeps of one bound solver, the
// second in fixed-control mode.
common::StatusOr<ExploitabilityReport> ExploitabilityOfField(
    const MfgParams& params, const Equilibrium& equilibrium,
    const numerics::TimeField2D& policy) {
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  const std::size_t nt = params.grid.num_time_steps;
  const std::size_t nq = q_grid.size();
  if (equilibrium.mean_field.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "equilibrium does not match params' discretization");
  }
  HjbBatchSolver solver;
  solver.Reset(1);
  MFG_RETURN_IF_ERROR(solver.BindLane(0, params));

  // Best-response value against the fixed population, then the value of
  // the candidate policy against the same population.
  numerics::TimeField2D best_value(nt + 1, nq);
  numerics::TimeField2D best_policy(nt + 1, nq);
  numerics::TimeField2D policy_value(nt + 1, nq);
  HjbBatchSolver::Workspace ws;
  MFG_RETURN_IF_ERROR(SweepOneLane(
      solver, equilibrium.mean_field,
      {.value = best_value.data(), .policy = best_policy.data()}, ws));
  MFG_RETURN_IF_ERROR(SweepOneLane(
      solver, equilibrium.mean_field,
      {.value = policy_value.data(), .control = policy.data()}, ws));

  const auto& initial = equilibrium.fpk.densities.front();
  ExploitabilityReport report;
  MFG_ASSIGN_OR_RETURN(
      report.best_response_value,
      numerics::TrapezoidProduct(q_grid, initial.values(), best_value[0]));
  MFG_ASSIGN_OR_RETURN(
      report.policy_value,
      numerics::TrapezoidProduct(q_grid, initial.values(), policy_value[0]));
  report.gap = report.best_response_value - report.policy_value;
  for (std::size_t i = 0; i < nq; ++i) {
    report.max_pointwise =
        std::max(report.max_pointwise, best_value[0][i] - policy_value[0][i]);
  }
  return report;
}

}  // namespace

common::StatusOr<std::vector<std::vector<double>>> EvaluatePolicyValue(
    const MfgParams& params,
    const std::vector<MeanFieldQuantities>& mean_field,
    const std::vector<std::vector<double>>& policy) {
  HjbBatchSolver solver;
  solver.Reset(1);
  MFG_RETURN_IF_ERROR(solver.BindLane(0, params));
  if (mean_field.size() != params.grid.num_time_steps + 1) {
    return common::Status::InvalidArgument(
        "mean_field must have num_time_steps + 1 entries");
  }
  MFG_ASSIGN_OR_RETURN(numerics::TimeField2D control,
                       FlattenPolicy(params, policy));
  numerics::TimeField2D value(control.rows(), control.cols());
  HjbBatchSolver::Workspace ws;
  MFG_RETURN_IF_ERROR(
      SweepOneLane(solver, mean_field,
                   {.value = value.data(), .control = control.data()}, ws));
  return value.ToNested();
}

common::StatusOr<ExploitabilityReport> ComputeExploitabilityOfPolicy(
    const MfgParams& params, const Equilibrium& equilibrium,
    const std::vector<std::vector<double>>& policy) {
  MFG_ASSIGN_OR_RETURN(numerics::TimeField2D control,
                       FlattenPolicy(params, policy));
  return ExploitabilityOfField(params, equilibrium, control);
}

common::StatusOr<ExploitabilityReport> ComputeExploitability(
    const MfgParams& params, const Equilibrium& equilibrium) {
  const numerics::TimeField2D& policy = equilibrium.hjb.policy;
  if (policy.rows() != params.grid.num_time_steps + 1 ||
      policy.cols() != params.grid.num_q_nodes) {
    return common::Status::InvalidArgument(
        "equilibrium does not match params' discretization");
  }
  return ExploitabilityOfField(params, equilibrium, policy);
}

common::StatusOr<double> ComputeConsistencyResidual(
    const MfgParams& params, const Equilibrium& equilibrium) {
  const std::size_t nt = params.grid.num_time_steps;
  if (equilibrium.fpk.densities.size() != nt + 1 ||
      equilibrium.hjb.policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "equilibrium does not match params' discretization");
  }
  MFG_ASSIGN_OR_RETURN(FpkSolver1D fpk, FpkSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(FpkSolution resolved,
                       fpk.Solve(equilibrium.fpk.densities.front(),
                                 equilibrium.hjb.policy));
  double residual = 0.0;
  for (std::size_t n = 0; n <= nt; ++n) {
    MFG_ASSIGN_OR_RETURN(
        double l1,
        resolved.densities[n].L1Distance(equilibrium.fpk.densities[n]));
    residual = std::max(residual, l1);
  }
  return residual;
}

}  // namespace mfg::core
