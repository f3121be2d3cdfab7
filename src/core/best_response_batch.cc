#include "core/best_response_batch.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/fault_injection.h"
#include "core/nonconvergence_log.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// Per-lane fault polls. The scalar solve relies on the worker's ambient
// (epoch, content, attempt) scope; the batch solve opens a lane-local
// scope per poll instead (attempt 0 — ladder retries run scalar). Firing
// is purely functional in the coordinates, so this preserves the
// determinism contract at any parallelism / batch width.
common::Status LaneFaultCheck(const BatchBestResponseLearner::LaneJob& job,
                              faults::FaultSite site) {
#if MFGCP_FAULTS_ENABLED
  faults::ScopedFaultScope scope(job.epoch, job.content, 0);
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
  faults::ScopedFaultScope scope(job.epoch, job.content, 0);
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

  // The batch-resident iterate: the flat 0.5 initial policy guess, and a
  // zero value surface — iteration 1's value residual measures against it,
  // as the scalar learner's against its cleared output.
  ws.policy.Assign((nt + 1) * nq, m, 0.5);
  ws.value.Assign((nt + 1) * nq, m, 0.0);
  ws.density.Reshape((nt + 1) * nq, m);  // Row 0 is written per lane.
  ws.mean_field.resize((nt + 1) * m);
  ws.policy_change.assign(m, 0.0);
  ws.value_change.assign(m, 0.0);
  ws.running.assign(m, 0);
  ws.leaving.assign(m, 0);
  ws.estimate.assign(m, 0);
  ws.hjb_alive.assign(m, 0);
  ws.fpk_alive.assign(m, 0);
  double* policy = ws.policy.data();
  double* value = ws.value.data();
  double* density = ws.density.data();

  // Per-lane setup: fault poll, initial density, equilibrium reset — the
  // scalar SolveInto preamble, lane by lane.
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    if (!job.active) continue;
    job.status = LaneFaultCheck(job, faults::FaultSite::kSolve);
    if (!job.status.ok()) continue;
    job.status = fpk_.MakeInitialDensityInto(l, ws.initial);
    if (!job.status.ok()) continue;
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
    const double* init = ws.initial.values().data();
    for (std::size_t i = 0; i < nq; ++i) density[i * m + l] = init[i];

    // λ trajectory under the initial guess; the scalar path polls
    // kFpkStep once, right before this first FPK sweep.
    job.status = LaneFaultCheck(job, faults::FaultSite::kFpkStep);
    if (!job.status.ok()) continue;
    ws.fpk_alive[l] = 1;
  }

  fpk_.SweepInto(policy, density, ws.fpk_alive, ws.fpk);
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    if (!job.active || !job.status.ok()) continue;
    if (ws.fpk_alive[l] == 0) {
      job.status = ws.fpk.status[l];
      continue;
    }
    ws.running[l] = 1;
  }

  // A leaving lane's outputs, from its columns of the fields and of the
  // round's estimate (its final mean-field refresh).
  auto write_equilibrium = [&](std::size_t l) {
    Equilibrium& eq = *lanes[l].out;
    hjb_.WriteLaneInto(l, value, policy, eq.hjb);
    fpk_.WriteLaneInto(l, density, eq.fpk);
    eq.mean_field.resize(nt + 1);
    for (std::size_t n = 0; n <= nt; ++n) {
      eq.mean_field[n] = ws.mean_field[n * m + l];
    }
  };

  // Lockstep fixed-point loop. Each round runs one scalar iteration for
  // every lane still in flight; lanes leave the loop exactly where the
  // scalar control flow would (converged -> before FPK; exhausted ->
  // after the trailing FPK of iteration max_iterations).
  for (std::size_t iter = 1;; ++iter) {
    // (1) Mean-field quantities per time node from (λ, x): this round's
    // iteration for the running lanes, the final refresh for the lanes
    // that left last round — the (λ, x) pair the scalar learner refreshes
    // from, since neither sweep touched their columns since.
    bool any = false;
    for (std::size_t l = 0; l < m; ++l) {
      ws.estimate[l] = (ws.running[l] | ws.leaving[l]) != 0 ? 1 : 0;
      any = any || ws.estimate[l] != 0;
    }
    if (!any) break;
    estimator_.EstimateTrajectoryInto(nt + 1, density, policy, ws.estimate,
                                      ws.mean_field);
    for (std::size_t l = 0; l < m; ++l) {
      if (ws.leaving[l] == 0) continue;
      write_equilibrium(l);
      ws.leaving[l] = 0;
    }

    // (2) Backward HJB -> candidate best response, relaxed in place.
    bool any_hjb = false;
    for (std::size_t l = 0; l < m; ++l) {
      ws.hjb_alive[l] = 0;
      if (!ws.running[l]) continue;
      LaneJob& job = lanes[l];
      job.out->iterations = iter;
      job.status = LaneFaultCheck(job, faults::FaultSite::kHjbStep);
      if (!job.status.ok()) {
        ws.running[l] = 0;
        continue;
      }
      ws.hjb_alive[l] = 1;
      any_hjb = true;
    }
    if (!any_hjb) continue;
    std::fill(ws.policy_change.begin(), ws.policy_change.end(), 0.0);
    std::fill(ws.value_change.begin(), ws.value_change.end(), 0.0);
    hjb_.SweepInto(ws.mean_field,
                   {value, policy, gamma_.data(), ws.policy_change.data(),
                    ws.value_change.data()},
                   ws.hjb_alive, ws.hjb);

    // (3) Relaxed policy update + convergence test (Alg. 2, line 6): the
    // HJB tail already relaxed p in place and measured both residuals
    // (the value residual against the previous surface in the field).
    bool any_fpk = false;
    for (std::size_t l = 0; l < m; ++l) {
      ws.fpk_alive[l] = 0;
      if (!ws.running[l]) continue;
      LaneJob& job = lanes[l];
      if (ws.hjb_alive[l] == 0) {
        job.status = ws.hjb.status[l];
        ws.running[l] = 0;
        continue;
      }
      Equilibrium& eq = *job.out;
      const double max_change = ws.policy_change[l];
      eq.policy_change_history.push_back(max_change);
      eq.value_change_history.push_back(ws.value_change[l]);
      MFG_FLIGHT_EVENT(kIteration, 0, content_id_[l],
                       static_cast<std::uint32_t>(iter), max_change,
                       ws.value_change[l]);
      if (max_change < tolerance_[l]) {
        eq.converged = true;
        ws.running[l] = 0;  // Scalar `break`: skips the FPK sweep.
        ws.leaving[l] = 1;
        continue;
      }
      // (4) Forward FPK under the relaxed policy.
      ws.fpk_alive[l] = 1;
      any_fpk = true;
    }
    if (!any_fpk) continue;
    fpk_.SweepInto(policy, density, ws.fpk_alive, ws.fpk);
    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.running[l]) continue;
      if (ws.fpk_alive[l] == 0) {
        lanes[l].status = ws.fpk.status[l];
        ws.running[l] = 0;
      } else if (iter >= max_iterations_[l]) {
        ws.running[l] = 0;  // Exhausted after the trailing FPK.
        ws.leaving[l] = 1;
      }
    }
  }

  // Post-loop bookkeeping per surviving lane, verbatim from the scalar
  // SolveFromInto epilogue (the mean-field refresh is already written).
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
      std::uint64_t suppressed = 0;
      if (ShouldLogNonConvergence(content_id_[l], suppressed)) {
        MFG_LOG(WARNING) << "best response did not converge for content "
                         << content_id_[l] << ": residual "
                         << eq.policy_change_history.back()
                         << " > tolerance " << tolerance_[l] << " after "
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
        content_id_[l], static_cast<std::uint32_t>(eq.iterations),
        eq.policy_change_history.empty() ? 0.0
                                         : eq.policy_change_history.back(),
        eq.value_change_history.empty() ? 0.0
                                        : eq.value_change_history.back());
  }
}

}  // namespace mfg::core
