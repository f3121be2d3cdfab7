#include "core/best_response_batch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "core/fault_injection.h"
#include "core/nonconvergence_log.h"
#include "numerics/residual_max.h"
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
  // Grow-only: a ragged last block must not drop the estimators (and
  // their tables) the next full-width block re-binds.
  if (estimators_.size() < num_lanes) estimators_.resize(num_lanes);
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
  if (estimators_[lane].has_value()) {
    MFG_RETURN_IF_ERROR(estimators_[lane]->Rebind(params));
  } else {
    MFG_ASSIGN_OR_RETURN(MeanFieldEstimator estimator,
                         MeanFieldEstimator::Create(params));
    estimators_[lane].emplace(std::move(estimator));
  }
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

  if (ws.lanes.size() < m) ws.lanes.resize(m);  // Grow-only, as estimators_.
  ws.hjb_io.resize(m);
  ws.fpk_io.resize(m);
  ws.running.assign(m, 0);

  // Per-lane setup: fault poll, initial density, equilibrium reset, flat
  // initial policy — the scalar SolveInto preamble, lane by lane.
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    ws.hjb_io[l].active = false;
    ws.fpk_io[l].active = false;
    if (!job.active) continue;
    job.status = LaneFaultCheck(job, faults::FaultSite::kSolve);
    if (!job.status.ok()) continue;
    LaneScratch& lane = ws.lanes[l];
    job.status = fpk_.MakeInitialDensityInto(l, lane.initial);
    if (!job.status.ok()) continue;
    MFG_OBS_COUNT("core.best_response.solves", 1);
    ++timed_lanes;

    // Reset a (possibly reused) output to the fresh-Equilibrium state
    // while keeping every buffer's capacity; clearing the value surface
    // matters for bit-identity (iteration 1's value residual measures
    // against the zero initialization).
    Equilibrium& eq = *job.out;
    eq.iterations = 0;
    eq.converged = false;
    eq.policy_change_history.clear();
    eq.value_change_history.clear();
    eq.hjb.value.clear();
    eq.hjb.policy.clear();
    lane.policy.Assign(nt + 1, nq, 0.5);

    // λ trajectory under the initial guess; the scalar path polls
    // kFpkStep once, right before this first FPK sweep.
    job.status = LaneFaultCheck(job, faults::FaultSite::kFpkStep);
    if (!job.status.ok()) continue;
    ws.fpk_io[l].initial = &lane.initial;
    ws.fpk_io[l].policy = &lane.policy;
    ws.fpk_io[l].solution = &eq.fpk;
    ws.fpk_io[l].active = true;
    ws.hjb_io[l].mean_field = &lane.mean_field;
    ws.hjb_io[l].solution = &lane.hjb_buffer;
    ws.running[l] = 1;
  }

  fpk_.SolveInto(ws.fpk_io, ws.fpk);
  for (std::size_t l = 0; l < m; ++l) {
    if (!ws.running[l]) continue;
    if (!ws.fpk_io[l].status.ok()) {
      lanes[l].status = ws.fpk_io[l].status;
      ws.running[l] = 0;
      continue;
    }
    Equilibrium& eq = *lanes[l].out;
    eq.hjb.q_grid = eq.fpk.q_grid;
    eq.hjb.dt = eq.fpk.dt;
    eq.policy_change_history.reserve(max_iterations_[l]);
    eq.value_change_history.reserve(max_iterations_[l]);
  }

  // Lockstep fixed-point loop. Each round runs one scalar iteration for
  // every lane still in flight; lanes leave the loop exactly where the
  // scalar control flow would (converged -> before FPK; exhausted ->
  // after the trailing FPK of iteration max_iterations).
  for (std::size_t iter = 1;; ++iter) {
    bool any = false;
    for (std::size_t l = 0; l < m; ++l) {
      ws.hjb_io[l].active = false;
      ws.fpk_io[l].active = false;
      if (!ws.running[l]) continue;
      if (iter > max_iterations_[l]) {
        ws.running[l] = 0;
        continue;
      }
      LaneJob& job = lanes[l];
      LaneScratch& lane = ws.lanes[l];
      Equilibrium& eq = *job.out;
      eq.iterations = iter;

      // (1) Mean-field quantities per time node from (λ, x).
      job.status = estimators_[l]->EstimateTrajectoryInto(
          eq.fpk.densities, lane.policy, lane.estimator, lane.mean_field);
      if (!job.status.ok()) {
        ws.running[l] = 0;
        continue;
      }

      // (2) Backward HJB -> candidate best response.
      job.status = LaneFaultCheck(job, faults::FaultSite::kHjbStep);
      if (!job.status.ok()) {
        ws.running[l] = 0;
        continue;
      }
      ws.hjb_io[l].active = true;
      any = true;
    }
    if (!any) break;

    hjb_.SolveInto(ws.hjb_io, ws.hjb);

    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.hjb_io[l].active) continue;
      LaneJob& job = lanes[l];
      if (!ws.hjb_io[l].status.ok()) {
        job.status = ws.hjb_io[l].status;
        ws.running[l] = 0;
        continue;
      }
      LaneScratch& lane = ws.lanes[l];
      Equilibrium& eq = *job.out;

      // (3) Relaxed policy update + convergence test (Alg. 2, line 6), with
      // the value residual vs the previous surface (still in eq.hjb), in one
      // pass. The relaxed iterate also overwrites the best response in
      // hjb_buffer, so the swap below exposes the *relaxed* policy (the
      // population's actual play) without a copy.
      const numerics::RelaxResiduals residuals =
          numerics::RelaxAndMeasureResiduals(
              gamma_[l], lane.policy.elements(),
              lane.hjb_buffer.policy.elements(),
              lane.hjb_buffer.value.elements(), eq.hjb.value.elements());
      const double max_change = residuals.policy_change;
      eq.policy_change_history.push_back(max_change);
      eq.value_change_history.push_back(residuals.value_change);
      MFG_FLIGHT_EVENT(kIteration, 0, content_id_[l],
                       static_cast<std::uint32_t>(iter), max_change,
                       residuals.value_change);
      std::swap(eq.hjb, lane.hjb_buffer);
      std::swap(eq.mean_field, lane.mean_field);

      if (max_change < tolerance_[l]) {
        eq.converged = true;
        ws.running[l] = 0;  // Scalar `break`: skips the FPK sweep.
        continue;
      }

      // (4) Forward FPK under the relaxed policy.
      ws.fpk_io[l].active = true;
    }

    fpk_.SolveInto(ws.fpk_io, ws.fpk);
    for (std::size_t l = 0; l < m; ++l) {
      if (!ws.fpk_io[l].active) continue;
      if (!ws.fpk_io[l].status.ok()) {
        lanes[l].status = ws.fpk_io[l].status;
        ws.running[l] = 0;
      }
    }
  }

  // Post-loop bookkeeping per surviving lane, verbatim from the scalar
  // SolveFromInto epilogue.
  for (std::size_t l = 0; l < m; ++l) {
    LaneJob& job = lanes[l];
    if (!job.active || !job.status.ok()) continue;
    LaneScratch& lane = ws.lanes[l];
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
    // Refresh the mean-field quantities for the final policy/density pair
    // so callers see a consistent triple (x, λ, mf).
    job.status = estimators_[l]->EstimateTrajectoryInto(
        eq.fpk.densities, eq.hjb.policy, lane.estimator, eq.mean_field);
  }
}

}  // namespace mfg::core
