#include "core/best_response_2d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "common/logging.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/time_field.h"
#include "obs/obs.h"

namespace mfg::core {
common::StatusOr<BestResponseLearner2D> BestResponseLearner2D::Create(
    const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(HjbSolver2D hjb, HjbSolver2D::Create(params));
  MFG_ASSIGN_OR_RETURN(FpkSolver2D fpk, FpkSolver2D::Create(params));
  MeanFieldBatchEstimator estimator;
  estimator.Reset(1);
  MFG_RETURN_IF_ERROR(estimator.BindLane(0, params));
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
  const numerics::Grid1D& h_grid = fpk_.h_grid();
  const std::size_t nh = h_grid.size();
  const std::size_t nq = fpk_.q_grid().size();
  const std::size_t rows = (nt + 1) * nq;

  // The iterate in [time][q][h] layout: node (ih, iq) of time node n at
  // [(n·nq + iq)·nh + ih]. The value starts at +0.0, the relaxed tail's
  // "no previous surface".
  numerics::BatchField policy, value, density;
  policy.Assign(rows, nh, initial_rate);
  value.Assign(rows, nh, 0.0);
  density.Reshape(rows, nh);
  MFG_ASSIGN_OR_RETURN(std::vector<double> initial,
                       fpk_.MakeInitialDensity());
  for (std::size_t ih = 0; ih < nh; ++ih) {
    for (std::size_t iq = 0; iq < nq; ++iq) {
      density.at(iq, ih) = initial[ih * nq + iq];
    }
  }

  Equilibrium2D eq;
  FpkSolver2D::Workspace fpk_ws;
  HjbSolver2D::Workspace hjb_ws;
  MFG_RETURN_IF_ERROR(fpk_.SweepInto(policy.data(), density.data(), fpk_ws));
  eq.policy_change_history.reserve(params_.learning.max_iterations);
  eq.value_change_history.reserve(params_.learning.max_iterations);

  // Estimates the mean-field quantities from the q-marginal of the joint
  // density (trapezoid over h, clipped and normalized) and the
  // population-mean policy per q node (the estimator's ⟨x⟩ integral needs
  // x(q); we use the density-weighted h-average), both [time][q] — one
  // estimator lane. Row (n, iq) of the fields is the nh h-nodes.
  numerics::TimeField2D q_marginal(nt + 1, nq);
  numerics::TimeField2D q_policy(nt + 1, nq);
  static constexpr std::uint8_t kOneLane[] = {1};
  auto estimate = [&](std::vector<MeanFieldQuantities>& mean_field)
      -> common::Status {
    for (std::size_t n = 0; n <= nt; ++n) {
      const std::span<double> marginal = q_marginal[n];
      const std::span<double> policy_mean = q_policy[n];
      for (std::size_t iq = 0; iq < nq; ++iq) {
        const std::span<const double> lambda = density[n * nq + iq];
        const std::span<const double> x = policy[n * nq + iq];
        double mass = 0.0;
        double weighted = 0.0;
        double weight = 0.0;
        for (std::size_t ih = 0; ih < nh; ++ih) {
          mass += (ih == 0 || ih + 1 == nh ? 0.5 : 1.0) * lambda[ih];
          weighted += lambda[ih] * x[ih];
          weight += lambda[ih];
        }
        marginal[iq] = mass * h_grid.dx();
        policy_mean[iq] = weight > 1e-300 ? weighted / weight : 0.0;
      }
      MFG_RETURN_IF_ERROR(
          numerics::Density1D::ClipAndNormalize(fpk_.q_grid(), marginal));
    }
    mean_field.resize(nt + 1);
    estimator_.EstimateTrajectoryInto(nt + 1, q_marginal.data(),
                                      q_policy.data(), kOneLane, mean_field);
    return common::Status::Ok();
  };

  // The relaxed sweep's per-lane inputs and residual maxima.
  const std::vector<double> gamma(nh, params_.learning.relaxation);
  std::vector<double> policy_change(nh), value_change(nh);
  std::vector<MeanFieldQuantities> mean_field;

  for (std::size_t iter = 1; iter <= params_.learning.max_iterations;
       ++iter) {
    eq.iterations = iter;
    MFG_RETURN_IF_ERROR(estimate(mean_field));
    std::fill(policy_change.begin(), policy_change.end(), 0.0);
    std::fill(value_change.begin(), value_change.end(), 0.0);
    HjbBatchSolver::Fields fields;
    fields.value = value.data();
    fields.policy = policy.data();
    fields.gamma = gamma.data();
    fields.policy_change = policy_change.data();
    fields.value_change = value_change.data();
    MFG_RETURN_IF_ERROR(hjb_.SweepInto(mean_field, fields, hjb_ws));
    // Both residuals are magnitudes, so the max over lanes is exact.
    const double max_change =
        *std::max_element(policy_change.begin(), policy_change.end());
    eq.policy_change_history.push_back(max_change);
    eq.value_change_history.push_back(
        *std::max_element(value_change.begin(), value_change.end()));
    std::swap(eq.mean_field, mean_field);

    if (max_change < params_.learning.tolerance) {
      eq.converged = true;
      break;
    }
    MFG_RETURN_IF_ERROR(
        fpk_.SweepInto(policy.data(), density.data(), fpk_ws));
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
  MFG_RETURN_IF_ERROR(estimate(eq.mean_field));

  eq.hjb.h_grid = h_grid;
  eq.hjb.q_grid = fpk_.q_grid();
  eq.hjb.dt = params_.TimeStep();
  eq.fpk.h_grid = h_grid;
  eq.fpk.q_grid = fpk_.q_grid();
  eq.fpk.dt = eq.hjb.dt;
  TransposeToHq(value, nq, eq.hjb.value);
  TransposeToHq(policy, nq, eq.hjb.policy);
  TransposeToHq(density, nq, eq.fpk.densities);
  return eq;
}

}  // namespace mfg::core
