#include "core/hjb_solver_2d.h"

#include <algorithm>
#include <cmath>

#include "econ/utility.h"
#include "obs/obs.h"

namespace mfg::core {

std::vector<double> Hjb2DSolution::PolicyAtH(std::size_t n,
                                             double h_fix) const {
  const std::size_t ih = h_grid.NearestIndex(h_fix);
  const std::size_t nq = q_grid.size();
  std::vector<double> slice(nq);
  const auto row = policy[n];
  for (std::size_t iq = 0; iq < nq; ++iq) {
    slice[iq] = row[Index(ih, iq)];
  }
  return slice;
}

MfgParams ChannelLaneParams(const MfgParams& params, double h) {
  MfgParams lane = params;
  lane.edge_rate = std::max(params.EdgeRateAt(h), 1e-3);
  lane.popularity_profile.clear();
  lane.timeliness_profile.clear();
  lane.requests_profile.clear();
  lane.grid.implicit_fpk = false;
  return lane;
}

numerics::LaneAxis MakeChannelAxis(const MfgParams& params,
                                   const numerics::Grid1D& h_grid,
                                   const numerics::Grid1D& q_grid) {
  numerics::LaneAxis axis;
  axis.drift.resize(h_grid.size());
  for (std::size_t ih = 0; ih < h_grid.size(); ++ih) {
    axis.drift[ih] = 0.5 * params.channel.varsigma *
                     (params.channel.upsilon - h_grid.x(ih));
  }
  axis.diffusion = 0.5 * params.channel.rho * params.channel.rho;
  axis.dx = h_grid.dx();
  // Combined explicit stability bound over both dimensions.
  const double dxq = q_grid.dx();
  const double dxh = h_grid.dx();
  const double diffusion_q =
      0.5 * params.dynamics.rho_q * params.dynamics.rho_q;
  const double max_speed_q =
      params.content_size *
      (params.dynamics.w1 + params.dynamics.w2 +
       params.dynamics.w3 * std::pow(params.dynamics.xi, params.timeliness));
  const double max_speed_h =
      0.5 * params.channel.varsigma * (h_grid.hi() - h_grid.lo());
  const double rate_sum = max_speed_q / dxq + 2.0 * diffusion_q / (dxq * dxq) +
                          max_speed_h / dxh +
                          2.0 * axis.diffusion / (dxh * dxh);
  const double dt = params.TimeStep();
  const double stable_dt =
      rate_sum > 0.0 ? params.grid.cfl_safety / rate_sum : dt;
  axis.substeps = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(dt / stable_dt)));
  axis.dt_sub = dt / static_cast<double>(axis.substeps);
  return axis;
}

void TransposeToHq(const numerics::BatchField& field, std::size_t nq,
                   numerics::TimeField2D& out) {
  const std::size_t nh = field.lanes();
  const std::size_t rows = field.nodes() / nq;
  out.Reshape(rows, nh * nq);
  const double* in = field.data();
  double* __restrict to = out.data();
  for (std::size_t n = 0; n < rows; ++n) {
    for (std::size_t iq = 0; iq < nq; ++iq) {
      for (std::size_t ih = 0; ih < nh; ++ih) {
        to[(n * nh + ih) * nq + iq] = in[(n * nq + iq) * nh + ih];
      }
    }
  }
}

common::StatusOr<HjbSolver2D> HjbSolver2D::Create(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D h_grid, params.MakeHGrid());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params.MakeCaseModel());
  HjbSolver2D solver(params, h_grid, q_grid, case_model);
  solver.batch_.Reset(h_grid.size());
  for (std::size_t ih = 0; ih < h_grid.size(); ++ih) {
    MFG_RETURN_IF_ERROR(solver.batch_.BindLane(
        ih, ChannelLaneParams(params, h_grid.x(ih))));
  }
  solver.channel_ = MakeChannelAxis(params, h_grid, q_grid);
  return solver;
}

common::StatusOr<double> HjbSolver2D::RunningUtility(
    double x, double h, double q, const MeanFieldQuantities& mf) const {
  econ::UtilityInputs in;
  in.content_size = params_.content_size;
  in.caching_rate = x;
  in.own_remaining = q;
  in.peer_remaining = mf.mean_peer_remaining;
  in.num_requests = params_.num_requests;
  in.price = mf.price;
  in.edge_rate = std::max(params_.EdgeRateAt(h), 1e-3);
  in.sharing_benefit = mf.sharing_benefit;
  in.download_scale = params_.ControlAvailability(q);
  in.cases = case_model_.Evaluate(q, mf.mean_peer_remaining,
                                  params_.content_size);
  in.sharing_enabled = params_.sharing_enabled;
  MFG_ASSIGN_OR_RETURN(econ::UtilityBreakdown breakdown,
                       econ::EvaluateUtility(params_.utility, in));
  return breakdown.total;
}

common::StatusOr<Hjb2DSolution> HjbSolver2D::Solve(
    const std::vector<MeanFieldQuantities>& mean_field) const {
  Workspace workspace;
  Hjb2DSolution solution;
  MFG_RETURN_IF_ERROR(SolveInto(mean_field, workspace, solution));
  return solution;
}

common::Status HjbSolver2D::SolveInto(
    const std::vector<MeanFieldQuantities>& mean_field, Workspace& ws,
    Hjb2DSolution& solution) const {
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = q_grid_.size();
  ws.value.Reshape((nt + 1) * nq, h_grid_.size());
  ws.policy.Reshape((nt + 1) * nq, h_grid_.size());
  MFG_RETURN_IF_ERROR(
      SweepInto(mean_field, {ws.value.data(), ws.policy.data()}, ws));
  solution.h_grid = h_grid_;
  solution.q_grid = q_grid_;
  solution.dt = params_.TimeStep();
  TransposeToHq(ws.value, nq, solution.value);
  TransposeToHq(ws.policy, nq, solution.policy);
  return common::Status::Ok();
}

common::Status HjbSolver2D::SweepInto(
    std::span<const MeanFieldQuantities> mean_field,
    HjbBatchSolver::Fields fields, Workspace& ws) const {
  MFG_OBS_SPAN("Hjb2D.SolveInto");
  MFG_OBS_SCOPED_TIMER("core.hjb_2d.sweep_seconds");
  MFG_OBS_COUNT("core.hjb_2d.sweeps", 1);
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nh = h_grid_.size();
  if (mean_field.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "mean_field must have num_time_steps + 1 entries");
  }
  // Every h lane sees the same per-time mean field.
  ws.mean_field.resize((nt + 1) * nh);
  for (std::size_t n = 0; n <= nt; ++n) {
    std::fill_n(ws.mean_field.begin() + n * nh, nh, mean_field[n]);
  }
  ws.alive.assign(nh, 1);
  fields.coupled = &channel_;
  batch_.SweepInto(ws.mean_field, fields, ws.alive, ws.batch);
  return ws.alive[0] != 0 ? common::Status::Ok() : ws.batch.status[0];
}

}  // namespace mfg::core
