#include "core/best_response_2d.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/logging.h"
#include "numerics/density.h"
#include "numerics/field2d.h"
#include "obs/obs.h"

namespace mfg::core {
common::StatusOr<BestResponseLearner2D> BestResponseLearner2D::Create(
    const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(HjbSolver2D hjb, HjbSolver2D::Create(params));
  MFG_ASSIGN_OR_RETURN(FpkSolver2D fpk, FpkSolver2D::Create(params));
  MFG_ASSIGN_OR_RETURN(MeanFieldEstimator estimator,
                       MeanFieldEstimator::Create(params));
  return BestResponseLearner2D(params, std::move(hjb), std::move(fpk),
                               std::move(estimator));
}

common::StatusOr<Equilibrium2D> BestResponseLearner2D::Solve(
    double initial_rate) const {
  if (initial_rate < 0.0 || initial_rate > 1.0) {
    return common::Status::InvalidArgument(
        "initial policy rate must be in [0, 1]");
  }
  MFG_OBS_SPAN("BestResponse2D.Solve");
  MFG_OBS_SCOPED_TIMER("core.best_response_2d.seconds");
  MFG_OBS_COUNT("core.best_response_2d.solves", 1);
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nh = fpk_.h_grid().size();
  const std::size_t nq = fpk_.q_grid().size();
  const std::size_t nodes = nh * nq;
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params_.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(
      numerics::Grid2D grid2d,
      numerics::Grid2D::Create(fpk_.h_grid(), fpk_.q_grid()));

  numerics::TimeField2D policy(nt + 1, nodes, initial_rate);
  MFG_ASSIGN_OR_RETURN(std::vector<double> initial,
                       fpk_.MakeInitialDensity());

  Equilibrium2D eq;
  FpkSolver2D::Workspace fpk_ws;
  HjbSolver2D::Workspace hjb_ws;
  MeanFieldEstimator::Workspace mf_ws;
  MFG_RETURN_IF_ERROR(fpk_.SolveInto(initial, policy, fpk_ws, eq.fpk));
  eq.hjb.h_grid = eq.fpk.h_grid;
  eq.hjb.q_grid = eq.fpk.q_grid;
  eq.hjb.dt = eq.fpk.dt;
  eq.policy_change_history.reserve(params_.learning.max_iterations);
  eq.value_change_history.reserve(params_.learning.max_iterations);

  // Reusable estimation buffers: the q-marginal is written straight into
  // the density's storage, and the per-q policy average into one slice.
  MFG_ASSIGN_OR_RETURN(numerics::Density1D density,
                       numerics::Density1D::FromSamplesUnchecked(
                           q_grid, std::vector<double>(nq, 1.0)));
  std::vector<double> policy_slice(nq, 0.0);

  // Estimates the mean-field quantities from the q-marginal of the joint
  // density and the population-mean policy per q node (the estimator's
  // ⟨x⟩ integral needs x(q); we use the density-weighted h-average).
  auto estimate = [&](const Fpk2DSolution& solution,
                      const numerics::TimeField2D& pol,
                      std::vector<MeanFieldQuantities>& mean_field)
      -> common::Status {
    mean_field.resize(nt + 1);
    for (std::size_t n = 0; n <= nt; ++n) {
      MFG_RETURN_IF_ERROR(numerics::MarginalizeAxis0Into(
          grid2d, solution.densities[n], density.mutable_values()));
      MFG_RETURN_IF_ERROR(density.ClipAndNormalize());
      // Density-weighted h-average of the policy per q node.
      const auto density_row = solution.densities[n];
      const auto policy_row = pol[n];
      for (std::size_t iq = 0; iq < nq; ++iq) {
        double weighted = 0.0;
        double weight = 0.0;
        for (std::size_t ih = 0; ih < nh; ++ih) {
          const double w = density_row[ih * nq + iq];
          weighted += w * policy_row[ih * nq + iq];
          weight += w;
        }
        policy_slice[iq] = weight > 1e-300 ? weighted / weight : 0.0;
      }
      MFG_RETURN_IF_ERROR(estimator_.EstimateInto(
          density, policy_slice, mf_ws, mean_field[n]));
    }
    return common::Status::Ok();
  };

  Hjb2DSolution hjb_buf;
  std::vector<MeanFieldQuantities> mean_field;

  for (std::size_t iter = 1; iter <= params_.learning.max_iterations;
       ++iter) {
    eq.iterations = iter;
    MFG_RETURN_IF_ERROR(estimate(eq.fpk, policy, mean_field));
    MFG_RETURN_IF_ERROR(hjb_.SolveInto(mean_field, hjb_ws, hjb_buf));

    // Relaxed update and both residuals in one pass; the relaxed iterate
    // lands in hjb_buf.policy too, so the swap exposes it without a copy.
    // Before the first iteration there is no previous value surface, and
    // the value residual is measured against zero.
    const double gamma = params_.learning.relaxation;
    const std::span<double> p = policy.elements();
    const std::span<double> h = hjb_buf.policy.elements();
    const std::span<const double> v = hjb_buf.value.elements();
    const std::span<const double> v_prev = eq.hjb.value.elements();
    const bool has_prev = v_prev.size() == v.size();
    double max_change = 0.0;
    double value_change = 0.0;
    for (std::size_t k = 0; k < p.size(); ++k) {
      const double updated = (1.0 - gamma) * p[k] + gamma * h[k];
      max_change = std::max(max_change, std::fabs(updated - p[k]));
      p[k] = updated;
      h[k] = updated;
      value_change = std::max(
          value_change, std::fabs(has_prev ? v[k] - v_prev[k] : v[k]));
    }
    eq.policy_change_history.push_back(max_change);
    eq.value_change_history.push_back(value_change);
    std::swap(eq.hjb, hjb_buf);
    std::swap(eq.mean_field, mean_field);

    if (max_change < params_.learning.tolerance) {
      eq.converged = true;
      break;
    }
    MFG_RETURN_IF_ERROR(fpk_.SolveInto(initial, policy, fpk_ws, eq.fpk));
  }

  MFG_OBS_OBSERVE_COUNTS("core.best_response_2d.iterations",
                         static_cast<double>(eq.iterations));
  if (!eq.converged) {
    MFG_OBS_COUNT("core.best_response.nonconverged", 1);
    MFG_LOG(WARNING) << "2-D best response did not converge for content "
                     << params_.content_id << ": residual "
                     << eq.policy_change_history.back() << " > tolerance "
                     << params_.learning.tolerance << " after "
                     << eq.iterations << " iterations";
  } else {
    MFG_OBS_COUNT("core.best_response.converged", 1);
  }
  MFG_RETURN_IF_ERROR(estimate(eq.fpk, eq.hjb.policy, eq.mean_field));
  return eq;
}

}  // namespace mfg::core
