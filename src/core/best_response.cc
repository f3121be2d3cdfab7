#include "core/best_response.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "core/fault_injection.h"
#include "core/nonconvergence_log.h"
#include "econ/utility.h"
#include "numerics/interpolation.h"
#include "numerics/residual_max.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {
common::StatusOr<BestResponseLearner> BestResponseLearner::Create(
    const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_FAULT_POINT(kRebind);
  MFG_ASSIGN_OR_RETURN(HjbSolver1D hjb, HjbSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(FpkSolver1D fpk, FpkSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(MeanFieldEstimator estimator,
                       MeanFieldEstimator::Create(params));
  return BestResponseLearner(params, std::move(hjb), std::move(fpk),
                             std::move(estimator));
}

common::Status BestResponseLearner::Rebind(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_FAULT_POINT(kRebind);
  MFG_RETURN_IF_ERROR(hjb_.Rebind(params));
  MFG_RETURN_IF_ERROR(fpk_.Rebind(params));
  MFG_RETURN_IF_ERROR(estimator_.Rebind(params));
  params_ = params;
  return common::Status::Ok();
}

common::StatusOr<Equilibrium> BestResponseLearner::Solve() const {
  MFG_ASSIGN_OR_RETURN(numerics::Density1D initial,
                       fpk_.MakeInitialDensity());
  return SolveFrom(initial, 0.5);
}

common::StatusOr<Equilibrium> BestResponseLearner::SolveFrom(
    const numerics::Density1D& initial, double initial_rate) const {
  Workspace workspace;
  Equilibrium eq;
  MFG_RETURN_IF_ERROR(SolveFromInto(initial, initial_rate, workspace, eq));
  return eq;
}

common::Status BestResponseLearner::SolveInto(Workspace& workspace,
                                              Equilibrium& out) const {
  MFG_FAULT_POINT(kSolve);
  MFG_RETURN_IF_ERROR(fpk_.MakeInitialDensityInto(workspace.initial));
  return SolveFromInto(workspace.initial, 0.5, workspace, out);
}

common::Status BestResponseLearner::SolveFromInto(
    const numerics::Density1D& initial, double initial_rate, Workspace& ws,
    Equilibrium& out) const {
  if (initial_rate < 0.0 || initial_rate > 1.0) {
    return common::Status::InvalidArgument(
        "initial policy rate must be in [0, 1]");
  }
  MFG_OBS_SPAN("BestResponse.Solve");
  MFG_OBS_SCOPED_TIMER("core.best_response.seconds");
  MFG_OBS_COUNT("core.best_response.solves", 1);
  const std::size_t nt = params_.grid.num_time_steps;
  const std::size_t nq = params_.grid.num_q_nodes;

  // Reset a (possibly reused) output to the fresh-Equilibrium state while
  // keeping every buffer's capacity. Clearing the value surface matters
  // for bit-identity: iteration 1's value residual must measure against
  // the zero initialization, not a previous solve's surface.
  Equilibrium& eq = out;
  eq.iterations = 0;
  eq.converged = false;
  eq.policy_change_history.clear();
  eq.value_change_history.clear();
  eq.hjb.value.clear();
  eq.hjb.policy.clear();

  ws.policy.Assign(nt + 1, nq, initial_rate);
  numerics::TimeField2D& policy = ws.policy;

  // λ trajectory under the initial guess (reuses eq.fpk's density storage
  // when the shape still matches).
  MFG_FAULT_POINT(kFpkStep);
  MFG_RETURN_IF_ERROR(fpk_.SolveInto(initial, policy, ws.fpk, eq.fpk));
  eq.hjb.q_grid = eq.fpk.q_grid;
  eq.hjb.dt = eq.fpk.dt;
  eq.policy_change_history.reserve(params_.learning.max_iterations);
  eq.value_change_history.reserve(params_.learning.max_iterations);

  // Double-buffered per-iteration products: swapped with the copies held in
  // `eq`, so iteration ψ+1 writes into iteration ψ−1's storage and the loop
  // is allocation-free once both buffers have warmed up.
  HjbSolution& hjb_buf = ws.hjb_buffer;
  std::vector<MeanFieldQuantities>& mean_field = ws.mean_field;

  for (std::size_t iter = 1; iter <= params_.learning.max_iterations;
       ++iter) {
    eq.iterations = iter;

    // (1) Mean-field quantities per time node from (λ, x).
    MFG_RETURN_IF_ERROR(estimator_.EstimateTrajectoryInto(
        eq.fpk.densities, policy, ws.estimator, mean_field));

    // (2) Backward HJB -> candidate best response.
    MFG_FAULT_POINT(kHjbStep);
    MFG_RETURN_IF_ERROR(hjb_.SolveInto(mean_field, ws.hjb, hjb_buf));

    // (3) Relaxed policy update + convergence test (Alg. 2, line 6), with
    // the value residual vs the previous iteration's surface (still held in
    // eq.hjb until the swap below). The relaxed iterate also overwrites the
    // best response in hjb_buf, so the swap exposes the *relaxed* policy
    // (the population's actual play) without a copy.
    const numerics::RelaxResiduals residuals =
        numerics::RelaxAndMeasureResiduals(
            params_.learning.relaxation, policy.elements(),
            hjb_buf.policy.elements(), hjb_buf.value.elements(),
            eq.hjb.value.elements());
    const double max_change = residuals.policy_change;
    eq.policy_change_history.push_back(max_change);
    eq.value_change_history.push_back(residuals.value_change);
    MFG_FLIGHT_EVENT(kIteration, 0, params_.content_id,
                     static_cast<std::uint32_t>(iter), max_change,
                     residuals.value_change);
    std::swap(eq.hjb, hjb_buf);
    std::swap(eq.mean_field, mean_field);

    if (max_change < params_.learning.tolerance) {
      eq.converged = true;
      break;
    }

    // (4) Forward FPK under the relaxed policy.
    MFG_RETURN_IF_ERROR(fpk_.SolveInto(initial, policy, ws.fpk, eq.fpk));
  }

  if (MFG_FAULT_FORCED(kNonConvergence)) eq.converged = false;
  MFG_OBS_OBSERVE_COUNTS("core.best_response.iterations",
                         static_cast<double>(eq.iterations));
  if (!eq.converged) {
    MFG_OBS_COUNT("core.best_response.nonconverged", 1);
    // At most one line per epoch per content; repeats only bump the
    // counter above and the suppressed tally.
    std::uint64_t suppressed = 0;
    if (ShouldLogNonConvergence(params_.content_id, suppressed)) {
      MFG_LOG(WARNING) << "best response did not converge for content "
                       << params_.content_id << ": residual "
                       << eq.policy_change_history.back() << " > tolerance "
                       << params_.learning.tolerance << " after "
                       << eq.iterations << " iterations"
                       << SuppressedSuffix(suppressed);
    } else {
      MFG_OBS_COUNT("core.best_response.nonconvergence_suppressed", 1);
    }
  } else {
    MFG_OBS_COUNT("core.best_response.converged", 1);
  }
  MFG_FLIGHT_EVENT(
      kSolveEnd, eq.converged ? std::uint8_t{1} : std::uint8_t{0},
      params_.content_id, static_cast<std::uint32_t>(eq.iterations),
      eq.policy_change_history.empty() ? 0.0
                                       : eq.policy_change_history.back(),
      eq.value_change_history.empty() ? 0.0
                                      : eq.value_change_history.back());
  // Refresh the mean-field quantities for the final policy/density pair so
  // callers see a consistent triple (x, λ, mf).
  return estimator_.EstimateTrajectoryInto(eq.fpk.densities, eq.hjb.policy,
                                          ws.estimator, eq.mean_field);
}

common::StatusOr<EquilibriumRollout> RolloutEquilibrium(
    const MfgParams& params, const Equilibrium& equilibrium, double q0) {
  MFG_RETURN_IF_ERROR(params.Validate());
  if (q0 < 0.0 || q0 > params.content_size) {
    return common::Status::InvalidArgument(
        "q0 must lie in [0, content_size]");
  }
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params.MakeCaseModel());
  const numerics::Grid1D& grid = equilibrium.hjb.q_grid;
  const std::size_t nt = params.grid.num_time_steps;
  if (equilibrium.hjb.policy.size() != nt + 1 ||
      equilibrium.mean_field.size() != nt + 1) {
    return common::Status::InvalidArgument(
        "equilibrium does not match params' time discretization");
  }
  const double dt = params.TimeStep();

  EquilibriumRollout out;
  out.time.reserve(nt + 1);
  double q = q0;
  double cumulative = 0.0;
  double cumulative_income = 0.0;
  for (std::size_t n = 0; n <= nt; ++n) {
    MFG_ASSIGN_OR_RETURN(
        double x, numerics::LinearInterpolate(grid,
                                              equilibrium.hjb.policy[n], q));
    const MeanFieldQuantities& mf = equilibrium.mean_field[n];

    econ::UtilityInputs in;
    in.content_size = params.content_size;
    in.caching_rate = x;
    in.own_remaining = q;
    in.peer_remaining = mf.mean_peer_remaining;
    in.num_requests = params.RequestsAt(n);
    in.price = mf.price;
    in.edge_rate = params.edge_rate;
    in.sharing_benefit = mf.sharing_benefit;
    in.download_scale = params.ControlAvailability(q);
    in.cases =
        case_model.Evaluate(q, mf.mean_peer_remaining, params.content_size);
    in.sharing_enabled = params.sharing_enabled;
    MFG_ASSIGN_OR_RETURN(econ::UtilityBreakdown u,
                         econ::EvaluateUtility(params.utility, in));

    out.time.push_back(static_cast<double>(n) * dt);
    out.cache_state.push_back(q);
    out.utility.push_back(u.total);
    out.trading_income.push_back(u.trading_income);
    out.staleness_cost.push_back(u.staleness_cost);
    out.sharing_benefit.push_back(u.sharing_benefit);
    cumulative += u.total * dt;
    cumulative_income += u.trading_income * dt;
    out.cumulative_utility.push_back(cumulative);
    out.cumulative_trading_income.push_back(cumulative_income);

    if (n < nt) {
      // Deterministic drift step (mean dynamics), reflected into [0, Q].
      q += params.CacheDriftAtNode(x, q, n) * dt;
      q = common::Clamp(q, 0.0, params.content_size);
    }
  }
  return out;
}

}  // namespace mfg::core
