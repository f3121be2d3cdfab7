#include "core/fpk_solver.h"

#include <algorithm>
#include <cstdint>

namespace mfg::core {

common::StatusOr<FpkSolver1D> FpkSolver1D::Create(const MfgParams& params) {
  FpkSolver1D solver;
  MFG_RETURN_IF_ERROR(solver.Rebind(params));
  return solver;
}

common::Status FpkSolver1D::Rebind(const MfgParams& params) {
  batch_.Reset(1);
  MFG_RETURN_IF_ERROR(batch_.BindLane(0, params));
  MFG_ASSIGN_OR_RETURN(q_grid_, params.MakeQGrid());
  params_ = params;
  return common::Status::Ok();
}

common::StatusOr<numerics::Density1D> FpkSolver1D::MakeInitialDensity()
    const {
  return numerics::Density1D::TruncatedGaussian(
      q_grid_, params_.init_mean_frac * params_.content_size,
      params_.init_std_frac * params_.content_size);
}

common::Status FpkSolver1D::MakeInitialDensityInto(
    numerics::Density1D& out) const {
  return batch_.MakeInitialDensityInto(0, out);
}

common::StatusOr<FpkSolution> FpkSolver1D::Solve(
    const numerics::Density1D& initial,
    const numerics::TimeField2D& policy) const {
  // The convenience path keeps its own cached scratch: a fresh Workspace
  // per call re-warms every buffer. thread_local keeps the path safe for
  // concurrent callers while repeated solves on one thread reuse the warm
  // buffers; the hot path (SolveInto) still uses caller-owned scratch.
  static thread_local Workspace workspace;
  FpkSolution solution;
  MFG_RETURN_IF_ERROR(SolveInto(initial, policy, workspace, solution));
  return solution;
}

common::StatusOr<FpkSolution> FpkSolver1D::Solve(
    const numerics::Density1D& initial,
    const std::vector<std::vector<double>>& policy) const {
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = q_grid_.size();
  if (!(initial.grid() == q_grid_)) {
    return common::Status::InvalidArgument(
        "initial density grid does not match the solver grid");
  }
  if (policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "policy must have num_time_steps + 1 slices");
  }
  for (const auto& slice : policy) {
    if (slice.size() != nq) {
      return common::Status::InvalidArgument("policy slice size mismatch");
    }
  }
  numerics::TimeField2D flat(nt + 1, nq);
  for (std::size_t n = 0; n <= nt; ++n) {
    std::copy(policy[n].begin(), policy[n].end(), flat[n].begin());
  }
  return Solve(initial, flat);
}

common::Status FpkSolver1D::SolveInto(const numerics::Density1D& initial,
                                      const numerics::TimeField2D& policy,
                                      Workspace& ws,
                                      FpkSolution& solution) const {
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = q_grid_.size();
  if (!(initial.grid() == q_grid_)) {
    return common::Status::InvalidArgument(
        "initial density grid does not match the solver grid");
  }
  if (policy.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "policy must have num_time_steps + 1 slices");
  }
  if (policy.cols() != nq) {
    return common::Status::InvalidArgument("policy slice size mismatch");
  }
  ws.densities.Reshape((nt + 1) * nq, 1);
  std::copy(initial.values().begin(), initial.values().end(),
            ws.densities.data());
  std::uint8_t alive = 1;
  batch_.SweepInto(policy.data(), ws.densities.data(),
                   std::span<std::uint8_t>(&alive, 1), ws.batch);
  if (alive == 0) return ws.batch.status[0];
  batch_.WriteLaneInto(0, ws.densities.data(), solution);
  return common::Status::Ok();
}

}  // namespace mfg::core
