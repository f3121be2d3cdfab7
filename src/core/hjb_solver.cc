#include "core/hjb_solver.h"

#include <cstdint>
#include <string>

#include "common/math_util.h"
#include "econ/utility.h"

namespace mfg::core {

common::StatusOr<HjbSolver1D> HjbSolver1D::Create(const MfgParams& params) {
  HjbSolver1D solver;
  MFG_RETURN_IF_ERROR(solver.Rebind(params));
  return solver;
}

common::Status HjbSolver1D::Rebind(const MfgParams& params) {
  batch_.Reset(1);
  MFG_RETURN_IF_ERROR(batch_.BindLane(0, params));
  MFG_ASSIGN_OR_RETURN(q_grid_, params.MakeQGrid());
  params_ = params;
  return common::Status::Ok();
}

double HjbSolver1D::OptimalRate(double dq_value, double availability) const {
  const auto& placement = params_.utility.placement;
  const auto& staleness = params_.utility.staleness;
  const double k1 =
      staleness.eta2 * params_.content_size / staleness.cloud_rate;
  const double k2 = params_.content_size * params_.dynamics.w1;
  const double numerator = placement.w4 + availability * (k1 + k2 * dq_value);
  return common::ClampUnit(-numerator * (1.0 / (2.0 * placement.w5)));
}

common::StatusOr<double> HjbSolver1D::RunningUtility(
    double x, double q, const MeanFieldQuantities& mf) const {
  return RunningUtilityAtNode(x, q, mf, 0);
}

common::StatusOr<double> HjbSolver1D::RunningUtilityAtNode(
    double x, double q, const MeanFieldQuantities& mf,
    std::size_t node) const {
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params_.MakeCaseModel());
  econ::UtilityInputs in;
  in.content_size = params_.content_size;
  in.caching_rate = x;
  in.own_remaining = q;
  in.peer_remaining = mf.mean_peer_remaining;
  in.num_requests = params_.RequestsAt(node);
  in.price = mf.price;
  in.edge_rate = params_.edge_rate;
  in.sharing_benefit = mf.sharing_benefit;
  in.download_scale = params_.ControlAvailability(q);
  in.cases =
      case_model.Evaluate(q, mf.mean_peer_remaining, params_.content_size);
  in.sharing_enabled = params_.sharing_enabled;
  MFG_ASSIGN_OR_RETURN(econ::UtilityBreakdown breakdown,
                       econ::EvaluateUtility(params_.utility, in));
  return breakdown.total;
}

common::StatusOr<HjbSolution> HjbSolver1D::Solve(
    const std::vector<MeanFieldQuantities>& mean_field) const {
  Workspace workspace;
  HjbSolution solution;
  MFG_RETURN_IF_ERROR(SolveInto(mean_field, workspace, solution));
  return solution;
}

common::Status HjbSolver1D::SolveInto(
    const std::vector<MeanFieldQuantities>& mean_field, Workspace& ws,
    HjbSolution& solution) const {
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = q_grid_.size();
  if (mean_field.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "mean_field must have num_time_steps + 1 entries, got " +
        std::to_string(mean_field.size()));
  }
  solution.q_grid = q_grid_;
  solution.dt = params_.TimeStep();
  solution.value.Reshape(nt + 1, nq);
  solution.policy.Reshape(nt + 1, nq);
  std::uint8_t alive = 1;
  batch_.SweepInto(mean_field,
                   {solution.value.data(), solution.policy.data()},
                   std::span<std::uint8_t>(&alive, 1), ws);
  return alive != 0 ? common::Status::Ok() : ws.status[0];
}

}  // namespace mfg::core
