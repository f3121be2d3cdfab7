#include "core/fpk_solver_2d.h"

#include <algorithm>
#include <cmath>

#include "core/hjb_solver_2d.h"
#include "numerics/density.h"
#include "numerics/field2d.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

numerics::Grid2D MakeGrid2D(const numerics::Grid1D& h_grid,
                            const numerics::Grid1D& q_grid) {
  return numerics::Grid2D::Create(h_grid, q_grid).value();
}

}  // namespace

double Fpk2DSolution::Mass(std::size_t n) const {
  return numerics::Trapezoid2D(MakeGrid2D(h_grid, q_grid), densities[n])
      .value();
}

std::vector<double> Fpk2DSolution::QMarginal(std::size_t n) const {
  return numerics::MarginalizeAxis0(MakeGrid2D(h_grid, q_grid),
                                    densities[n])
      .value();
}

std::vector<double> Fpk2DSolution::HMarginal(std::size_t n) const {
  return numerics::MarginalizeAxis1(MakeGrid2D(h_grid, q_grid),
                                    densities[n])
      .value();
}

common::StatusOr<FpkSolver2D> FpkSolver2D::Create(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D h_grid, params.MakeHGrid());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  FpkSolver2D solver(params, h_grid, q_grid);
  solver.batch_.Reset(h_grid.size());
  for (std::size_t ih = 0; ih < h_grid.size(); ++ih) {
    MFG_RETURN_IF_ERROR(solver.batch_.BindLane(
        ih, ChannelLaneParams(params, h_grid.x(ih))));
  }
  solver.channel_ = MakeChannelAxis(params, h_grid, q_grid);
  return solver;
}

common::StatusOr<std::vector<double>> FpkSolver2D::MakeInitialDensity()
    const {
  const std::size_t nh = h_grid_.size();
  const std::size_t nq = q_grid_.size();
  // h: OU stationary law N(υ, ϱ²/ς); degenerate diffusion -> a narrow
  // Gaussian at 10% of the grid width (a near-delta the grid can hold).
  double h_std = params_.channel.rho / std::sqrt(params_.channel.varsigma);
  if (h_std <= 0.0) h_std = 0.1 * (h_grid_.hi() - h_grid_.lo());
  std::vector<double> h_values(nh);
  for (std::size_t i = 0; i < nh; ++i) {
    h_values[i] =
        numerics::GaussianPdf(h_grid_.x(i), params_.channel.upsilon, h_std);
  }
  std::vector<double> q_values(nq);
  for (std::size_t j = 0; j < nq; ++j) {
    q_values[j] = numerics::GaussianPdf(
        q_grid_.x(j), params_.init_mean_frac * params_.content_size,
        params_.init_std_frac * params_.content_size);
  }
  numerics::Grid2D grid = MakeGrid2D(h_grid_, q_grid_);
  MFG_ASSIGN_OR_RETURN(std::vector<double> field,
                       numerics::OuterProduct(grid, h_values, q_values));
  MFG_RETURN_IF_ERROR(numerics::ClipAndNormalize2D(grid, field));
  return field;
}

common::StatusOr<Fpk2DSolution> FpkSolver2D::Solve(
    const std::vector<double>& initial,
    const numerics::TimeField2D& policy) const {
  Workspace workspace;
  Fpk2DSolution solution;
  MFG_RETURN_IF_ERROR(SolveInto(initial, policy, workspace, solution));
  return solution;
}

common::StatusOr<Fpk2DSolution> FpkSolver2D::Solve(
    const std::vector<double>& initial,
    const std::vector<std::vector<double>>& policy) const {
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nodes = h_grid_.size() * q_grid_.size();
  if (policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "policy must have num_time_steps + 1 slices");
  }
  for (const auto& slice : policy) {
    if (slice.size() != nodes) {
      return common::Status::InvalidArgument("policy slice size mismatch");
    }
  }
  numerics::TimeField2D flat(nt + 1, nodes);
  for (std::size_t n = 0; n <= nt; ++n) {
    std::copy(policy[n].begin(), policy[n].end(), flat[n].begin());
  }
  return Solve(initial, flat);
}

common::Status FpkSolver2D::SolveInto(const std::vector<double>& initial,
                                      const numerics::TimeField2D& policy,
                                      Workspace& ws,
                                      Fpk2DSolution& solution) const {
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nh = h_grid_.size();
  const std::size_t nq = q_grid_.size();
  const std::size_t nodes = nh * nq;
  if (initial.size() != nodes) {
    return common::Status::InvalidArgument("initial density size mismatch");
  }
  if (policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "policy must have num_time_steps + 1 slices");
  }
  if (policy.cols() != nodes) {
    return common::Status::InvalidArgument("policy slice size mismatch");
  }
  // [time][h·q] in, [time][q][h] for the sweep.
  ws.policy.Reshape((nt + 1) * nq, nh);
  ws.density.Reshape((nt + 1) * nq, nh);
  for (std::size_t n = 0; n <= nt; ++n) {
    for (std::size_t ih = 0; ih < nh; ++ih) {
      for (std::size_t iq = 0; iq < nq; ++iq) {
        ws.policy.at(n * nq + iq, ih) = policy[n][ih * nq + iq];
      }
    }
  }
  for (std::size_t ih = 0; ih < nh; ++ih) {
    for (std::size_t iq = 0; iq < nq; ++iq) {
      ws.density.at(iq, ih) = initial[ih * nq + iq];
    }
  }
  MFG_RETURN_IF_ERROR(SweepInto(ws.policy.data(), ws.density.data(), ws));
  solution.h_grid = h_grid_;
  solution.q_grid = q_grid_;
  solution.dt = params_.TimeStep();
  TransposeToHq(ws.density, nq, solution.densities);
  return common::Status::Ok();
}

common::Status FpkSolver2D::SweepInto(const double* policy, double* densities,
                                      Workspace& ws) const {
  MFG_OBS_SPAN("Fpk2D.SolveInto");
  MFG_OBS_SCOPED_TIMER("core.fpk_2d.sweep_seconds");
  MFG_OBS_COUNT("core.fpk_2d.sweeps", 1);
  ws.alive.assign(h_grid_.size(), 1);
  batch_.SweepInto(policy, densities, ws.alive, ws.batch, &channel_);
  return ws.alive[0] != 0 ? common::Status::Ok() : ws.batch.status[0];
}

}  // namespace mfg::core
