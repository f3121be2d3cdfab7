#include "core/best_response.h"

#include <span>

#include "common/logging.h"
#include "common/math_util.h"
#include "econ/utility.h"
#include "numerics/interpolation.h"

namespace mfg::core {

common::StatusOr<BestResponseLearner> BestResponseLearner::Create(
    const MfgParams& params) {
  BestResponseLearner learner;
  MFG_RETURN_IF_ERROR(learner.Rebind(params));
  return learner;
}

common::Status BestResponseLearner::Rebind(const MfgParams& params) {
  batch_.Reset(1);
  MFG_RETURN_IF_ERROR(batch_.BindLane(0, params));
  params_ = params;
  return common::Status::Ok();
}

common::StatusOr<Equilibrium> BestResponseLearner::Solve() const {
  Workspace workspace;
  Equilibrium eq;
  MFG_RETURN_IF_ERROR(SolveInto(workspace, eq));
  return eq;
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
  BatchBestResponseLearner::LaneJob job;
  job.out = &out;
  return Run(job, workspace);
}

common::Status BestResponseLearner::SolveFromInto(
    const numerics::Density1D& initial, double initial_rate,
    Workspace& workspace, Equilibrium& out) const {
  BatchBestResponseLearner::LaneJob job;
  job.initial = &initial;
  job.initial_rate = initial_rate;
  job.out = &out;
  return Run(job, workspace);
}

common::Status BestResponseLearner::Run(BatchBestResponseLearner::LaneJob& job,
                                        Workspace& workspace) const {
  job.ambient_fault_scope = true;
  job.active = true;
  batch_.SolveInto(std::span<BatchBestResponseLearner::LaneJob>(&job, 1),
                   workspace);
  const Equilibrium& eq = *job.out;
  if (job.status.ok() && !eq.converged) {
    MFG_LOG(WARNING) << "best response did not converge for content "
                     << params_.content_id << ": residual "
                     << eq.policy_change_history.back() << " > tolerance "
                     << params_.learning.tolerance << " after "
                     << eq.iterations << " iterations";
  }
  return job.status;
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
