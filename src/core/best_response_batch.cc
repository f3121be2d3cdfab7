#include "core/best_response_batch.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/fault_injection.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// Rows of Workspace::flags.
enum FlagRow : std::size_t {
  kRunning,   // Lane still in the lockstep loop.
  kLeaving,   // Left last round; its Equilibrium is not yet written.
  kEstimate,  // Lanes the next estimate serves.
  kHjbAlive,  // Lanes of this round's HJB sweep.
  kFpkAlive,  // Lanes of this round's FPK sweep.
  kFlagRows,
};

// Rows of Workspace::residuals.
enum ResidualRow : std::size_t {
  kPolicyChange,
  kValueChange,
  kPolicySum,  // Σ p over all (t, q) cells, for the leaving lanes.
  kResidualRows,
};

// sum[l] = Σ_k policy[k·m + l] over the k < cells elements of every lane,
// each lane's chain in k = (n, i) order: the serial MeanCachingRate sum,
// with the m chains side by side.
void SumPolicyLanes(const double* policy, std::size_t cells, std::size_t m,
                    double* sum) {
  std::fill(sum, sum + m, 0.0);
  for (std::size_t k = 0; k < cells; ++k) {
    const double* row = policy + k * m;
    for (std::size_t l = 0; l < m; ++l) sum[l] += row[l];
  }
}

// Per-lane fault polls. A block solve has no single ambient content, so
// by default each poll opens a lane-local scope at the job's coordinates;
// a job that asks for the ambient scope (a one-lane view) polls under its
// caller's. Firing is purely functional in the coordinates, so this
// preserves the determinism contract at any parallelism / batch width.
common::Status LaneFaultCheck(const BatchBestResponseLearner::LaneJob& job,
                              faults::FaultSite site) {
#if MFGCP_FAULTS_ENABLED
  if (job.ambient_fault_scope) return faults::Check(site);
  faults::ScopedFaultScope scope(job.epoch, job.content, job.attempt);
  return faults::Check(site);
#else
  (void)job;
  (void)site;
  return common::Status::Ok();
#endif
}

bool LaneFaultFires(const BatchBestResponseLearner::LaneJob& job,
                    faults::FaultSite site) {
#if MFGCP_FAULTS_ENABLED
  if (job.ambient_fault_scope) return faults::Fires(site);
  faults::ScopedFaultScope scope(job.epoch, job.content, job.attempt);
  return faults::Fires(site);
#else
  (void)job;
  (void)site;
  return false;
#endif
}

}  // namespace

void BatchBestResponseLearner::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  hjb_.Reset(num_lanes);
  fpk_.Reset(num_lanes);
  estimator_.Reset(num_lanes);
  gamma_.resize(num_lanes);
  tolerance_.resize(num_lanes);
  max_iterations_.resize(num_lanes);
  content_id_.resize(num_lanes);
}

common::Status BatchBestResponseLearner::BindLane(std::size_t lane,
                                                  const MfgParams& params) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_FAULT_POINT(kRebind);
  MFG_RETURN_IF_ERROR(hjb_.BindLane(lane, params));
  MFG_RETURN_IF_ERROR(fpk_.BindLane(lane, params));
  MFG_RETURN_IF_ERROR(estimator_.BindLane(lane, params));
  if (bound_lanes_ == 0) {
    nq_ = params.grid.num_q_nodes;
    nt_ = params.grid.num_time_steps;
  }
  ++bound_lanes_;
  gamma_[lane] = params.learning.relaxation;
  tolerance_[lane] = params.learning.tolerance;
  max_iterations_[lane] = params.learning.max_iterations;
  content_id_[lane] = params.content_id;
  return common::Status::Ok();
}

void BatchBestResponseLearner::SolveInto(std::span<LaneJob> lanes,
                                         Workspace& ws) const {
  MFG_OBS_SPAN("BestResponseBatch.Solve");
  std::size_t timed_lanes = 0;  // One core.best_response.solves each.
  MFG_OBS_SCOPED_LANE_TIMER("core.best_response.seconds", timed_lanes);
  const std::size_t m = num_lanes_;
  const std::size_t nt = nt_;
  const std::size_t nq = nq_;

  // The batch-resident iterate: the flat initial policy guess (0.5 unless
  // a job says otherwise), and a zero value surface — iteration 1's value
  // residual measures against it.
  ws.policy.Assign((nt + 1) * nq, m, 0.5);
  ws.value.Assign((nt + 1) * nq, m, 0.0);
  ws.density.Reshape((nt + 1) * nq, m);  // Row 0 is written per lane.
  ws.mean_field.resize((nt + 1) * m);
  ws.residuals.Assign(kResidualRows, m, 0.0);
  ws.flags.assign(kFlagRows * m, 0);
  double* policy = ws.policy.data();
  double* value = ws.value.data();
  double* density = ws.density.data();
  double* policy_change = ws.residuals[kPolicyChange].data();
  double* value_change = ws.residuals[kValueChange].data();
  double* policy_sum = ws.residuals[kPolicySum].data();
  auto flags = [&](FlagRow row) {
    return std::span<std::uint8_t>(ws.flags.data() + row * m, m);
  };
  const std::span<std::uint8_t> running = flags(kRunning);
  const std::span<std::uint8_t> leaving = flags(kLeaving);
  const std::span<std::uint8_t> estimate = flags(kEstimate);
  const std::span<std::uint8_t> hjb_alive = flags(kHjbAlive);
  const std::span<std::uint8_t> fpk_alive = flags(kFpkAlive);

  // Per-lane setup: start density, fault polls, equilibrium reset.
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    if (!job.active) continue;
    if (job.initial == nullptr) {
      job.status = LaneFaultCheck(job, faults::FaultSite::kSolve);
      if (!job.status.ok()) continue;
      job.status = fpk_.MakeInitialDensityInto(l, ws.initial);
      if (!job.status.ok()) continue;
    }
    if (job.initial_rate < 0.0 || job.initial_rate > 1.0) {
      job.status = common::Status::InvalidArgument(
          "initial policy rate must be in [0, 1]");
      continue;
    }
    MFG_OBS_COUNT("core.best_response.solves", 1);
    ++timed_lanes;

    // Reset a (possibly reused) output's scalars and histories, keeping
    // every buffer's capacity; its fields are written at lane exit.
    Equilibrium& eq = *job.out;
    eq.iterations = 0;
    eq.converged = false;
    eq.policy_change_history.clear();
    eq.value_change_history.clear();
    eq.policy_change_history.reserve(max_iterations_[l]);
    eq.value_change_history.reserve(max_iterations_[l]);

    // λ trajectory under the initial guess; kFpkStep is polled once,
    // right before this first FPK sweep.
    job.status = LaneFaultCheck(job, faults::FaultSite::kFpkStep);
    if (!job.status.ok()) continue;
    const numerics::Density1D& initial =
        job.initial != nullptr ? *job.initial : ws.initial;
    if (!(initial.grid() == fpk_.grid(l))) {
      job.status = common::Status::InvalidArgument(
          "initial density grid does not match the solver grid");
      continue;
    }
    const double* init = initial.values().data();
    for (std::size_t i = 0; i < nq; ++i) density[i * m + l] = init[i];
    if (job.initial_rate != 0.5) {
      for (std::size_t k = 0; k < (nt + 1) * nq; ++k) {
        policy[k * m + l] = job.initial_rate;
      }
    }
    fpk_alive[l] = 1;
  }

  fpk_.SweepInto(policy, density, fpk_alive, ws.fpk);
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    if (!job.active || !job.status.ok()) continue;
    if (fpk_alive[l] == 0) {
      job.status = ws.fpk.status[l];
      continue;
    }
    running[l] = 1;
  }

  // A leaving lane's outputs, from its columns of the fields and of the
  // round's estimate (its final mean-field refresh), plus its mean caching
  // rate from the round's policy_sum.
  const std::size_t cells = (nt + 1) * nq;
  auto write_equilibrium = [&](std::size_t l) {
    Equilibrium& eq = *lanes[l].out;
    hjb_.WriteLaneInto(l, value, policy, eq.hjb);
    fpk_.WriteLaneInto(l, density, eq.fpk);
    eq.mean_field.resize(nt + 1);
    for (std::size_t n = 0; n <= nt; ++n) {
      eq.mean_field[n] = ws.mean_field[n * m + l];
    }
    eq.mean_caching_rate = policy_sum[l] / static_cast<double>(cells);
  };

  // Lockstep fixed-point loop. Each round runs one Alg. 2 iteration for
  // every lane still in flight; a lane leaves the loop converged (before
  // the FPK sweep) or exhausted (after the trailing FPK of iteration
  // max_iterations).
  for (std::size_t iter = 1;; ++iter) {
    // (1) Mean-field quantities per time node from (λ, x): this round's
    // iteration for the running lanes, the final refresh for the lanes
    // that left last round — their final (λ, x) pair, since neither sweep
    // touched their columns since.
    bool any = false;
    bool any_leaving = false;
    for (std::size_t l = 0; l < m; ++l) {
      estimate[l] = (running[l] | leaving[l]) != 0 ? 1 : 0;
      any = any || estimate[l] != 0;
      any_leaving = any_leaving || leaving[l] != 0;
    }
    if (!any) break;
    estimator_.EstimateTrajectoryInto(nt + 1, density, policy, estimate,
                                      ws.mean_field);
    if (any_leaving) SumPolicyLanes(policy, cells, m, policy_sum);
    for (std::size_t l = 0; l < m; ++l) {
      if (leaving[l] == 0) continue;
      write_equilibrium(l);
      leaving[l] = 0;
    }

    // (2) Backward HJB -> candidate best response, relaxed in place.
    bool any_hjb = false;
    for (std::size_t l = 0; l < m; ++l) {
      hjb_alive[l] = 0;
      if (!running[l]) continue;
      LaneJob& job = lanes[l];
      job.out->iterations = iter;
      job.status = LaneFaultCheck(job, faults::FaultSite::kHjbStep);
      if (!job.status.ok()) {
        running[l] = 0;
        continue;
      }
      hjb_alive[l] = 1;
      any_hjb = true;
    }
    if (!any_hjb) continue;
    std::fill(policy_change, policy_change + m, 0.0);
    std::fill(value_change, value_change + m, 0.0);
    hjb_.SweepInto(ws.mean_field,
                   {value, policy, gamma_.data(), policy_change,
                    value_change},
                   hjb_alive, ws.hjb);

    // (3) Relaxed policy update + convergence test (Alg. 2, line 6): the
    // HJB tail already relaxed p in place and measured both residuals
    // (the value residual against the previous surface in the field).
    bool any_fpk = false;
    for (std::size_t l = 0; l < m; ++l) {
      fpk_alive[l] = 0;
      if (!running[l]) continue;
      LaneJob& job = lanes[l];
      if (hjb_alive[l] == 0) {
        job.status = ws.hjb.status[l];
        running[l] = 0;
        continue;
      }
      Equilibrium& eq = *job.out;
      const double max_change = policy_change[l];
      eq.policy_change_history.push_back(max_change);
      eq.value_change_history.push_back(value_change[l]);
      MFG_FLIGHT_EVENT(kIteration, 0, content_id_[l],
                       static_cast<std::uint32_t>(iter), max_change,
                       value_change[l]);
      if (max_change < tolerance_[l]) {
        eq.converged = true;
        running[l] = 0;  // Converged: skips the FPK sweep.
        leaving[l] = 1;
        continue;
      }
      // (4) Forward FPK under the relaxed policy.
      fpk_alive[l] = 1;
      any_fpk = true;
    }
    if (!any_fpk) continue;
    fpk_.SweepInto(policy, density, fpk_alive, ws.fpk);
    for (std::size_t l = 0; l < m; ++l) {
      if (!running[l]) continue;
      if (fpk_alive[l] == 0) {
        lanes[l].status = ws.fpk.status[l];
        running[l] = 0;
      } else if (iter >= max_iterations_[l]) {
        running[l] = 0;  // Exhausted after the trailing FPK.
        leaving[l] = 1;
      }
    }
  }

  // Post-loop bookkeeping per surviving lane (the mean-field refresh is
  // already written).
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    if (!job.active || !job.status.ok()) continue;
    Equilibrium& eq = *job.out;
    if (LaneFaultFires(job, faults::FaultSite::kNonConvergence)) {
      eq.converged = false;
    }
    MFG_OBS_OBSERVE_COUNTS("core.best_response.iterations",
                           static_cast<double>(eq.iterations));
    if (!eq.converged) {
      MFG_OBS_COUNT("core.best_response.nonconverged", 1);
    } else {
      MFG_OBS_COUNT("core.best_response.converged", 1);
    }
    MFG_FLIGHT_EVENT(
        kSolveEnd, eq.converged ? std::uint8_t{1} : std::uint8_t{0},
        content_id_[l], static_cast<std::uint32_t>(eq.iterations),
        eq.policy_change_history.empty() ? 0.0
                                         : eq.policy_change_history.back(),
        eq.value_change_history.empty() ? 0.0
                                        : eq.value_change_history.back());
  }
}

}  // namespace mfg::core
