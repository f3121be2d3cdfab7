#ifndef MFGCP_CORE_BEST_RESPONSE_BATCH_H_
#define MFGCP_CORE_BEST_RESPONSE_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/best_response.h"
#include "core/fpk_batch.h"
#include "core/hjb_batch.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"

// Content-batched counterpart of BestResponseLearner: runs Alg. 2 for K
// contents (the lanes) in lockstep, delegating the HJB/FPK sweeps to the
// SoA batch solvers so the per-node inner loops vectorize across lanes.
//
// Bit-identity contract (guarded by batch_equivalence_test and the epoch
// goldens): lane l performs the exact per-iteration sequence of
// BestResponseLearner::SolveInto on lane-l data — estimate, HJB, relaxed
// update, residual bookkeeping, FPK — with no cross-lane arithmetic, so
// its Equilibrium is bitwise equal to the scalar learner's. Lanes may
// converge at different iterations; a converged lane simply drops out of
// the lockstep loop (and, exactly like the scalar `break`, skips the
// final FPK), while a lane that exhausts max_iterations unconverged still
// runs the trailing FPK sweep of its last loop body.
//
// Failure routing: a lane that fails (divergence, injected fault, ...)
// records the scalar learner's error in its LaneJob::status and stops
// participating; the remaining lanes are unaffected. The epoch path then
// re-runs failed lanes on the scalar recovery ladder (mfg_cp.cc), so
// degraded contents see the identical retry/carry-forward/fallback
// behavior as before.
//
// Batch residency: the iterate lives in the workspace's [time][node][lane]
// fields for the whole solve (see Workspace), so nothing is gathered or
// scattered per iteration. One lane-parallel estimate per round serves
// both the running lanes' next iteration and the final mean-field refresh
// of the lanes that left in the previous round (that estimate reads
// exactly the (λ, x) pair the scalar refresh does); a leaving lane's
// Equilibrium is written right after it. After that write, and for a
// failed lane from the moment it fails, the lane's columns are garbage
// the kernels may keep computing on and nothing reads.
//
// Fault injection: the scalar solve polls kSolve / kFpkStep / kHjbStep /
// kNonConvergence under the worker's ambient (epoch, content, attempt)
// scope. The batch solve has no single ambient content, so each poll
// opens a per-lane scope with that lane's coordinates at attempt 0 —
// firing decisions are purely functional in those coordinates, so the
// determinism contract is unchanged.

namespace mfg::core {

class BatchBestResponseLearner {
 public:
  // Long-lived scratch; all buffers re-shape in place so repeated solves
  // on a warmed grid shape never touch the heap (allocs_per_epoch=0). The
  // three fields hold the block's iterate in [time][node][lane] layout,
  // (nt + 1)·nq·lanes doubles each, node i of lane l at time node n at
  // [(n·nq + i)·lanes + l].
  struct Workspace {
    numerics::BatchField policy;   // The iterate p (relaxed in place).
    numerics::BatchField value;    // V; the previous surface until the
                                   // HJB tail overwrites a row.
    numerics::BatchField density;  // λ; row 0 is the initial density.
    std::vector<MeanFieldQuantities> mean_field;  // [time][lane].
    numerics::Density1D initial;  // MakeInitialDensityInto scratch.
    HjbBatchSolver::Workspace hjb;
    FpkBatchSolver::Workspace fpk;
    std::vector<double> policy_change;  // This iteration's residuals.
    std::vector<double> value_change;
    std::vector<std::uint8_t> running;   // Lane still in the lockstep loop.
    std::vector<std::uint8_t> leaving;   // Left last round; not yet written.
    std::vector<std::uint8_t> estimate;  // Lanes the next estimate serves.
    std::vector<std::uint8_t> hjb_alive;
    std::vector<std::uint8_t> fpk_alive;
  };

  // One content's solve request/result. `epoch`/`content` key the
  // fault-injection plan; `out` receives the equilibrium (storage reused
  // across epochs, exactly like the scalar SolveInto contract).
  struct LaneJob {
    std::size_t epoch = 0;
    std::size_t content = 0;
    bool active = false;
    Equilibrium* out = nullptr;
    common::Status status;
  };

  BatchBestResponseLearner() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // SolveInto. Keeps table capacity across calls.
  void Reset(std::size_t num_lanes);

  // Validates and tabulates lane `lane` (the batched Rebind). All bound
  // lanes must share the grid shape. Polls the kRebind fault site under
  // the caller's ambient fault scope, like the scalar Rebind.
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  std::size_t num_lanes() const { return num_lanes_; }

  // Runs Alg. 2 for every active lane from the params' initial density
  // and a flat 0.5 initial policy guess (the epoch path's invocation of
  // the scalar SolveInto). lanes.size() must equal num_lanes(). Statuses
  // are per lane; the call itself cannot fail globally.
  void SolveInto(std::span<LaneJob> lanes, Workspace& ws) const;

 private:
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  std::size_t nt_ = 0;

  HjbBatchSolver hjb_;
  FpkBatchSolver fpk_;
  MeanFieldBatchEstimator estimator_;

  // Per-lane learning controls (LearningParams of the bound params).
  std::vector<double> gamma_;
  std::vector<double> tolerance_;
  std::vector<std::size_t> max_iterations_;
  std::vector<std::size_t> content_id_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_BEST_RESPONSE_BATCH_H_
