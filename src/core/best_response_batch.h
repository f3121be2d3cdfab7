#ifndef MFGCP_CORE_BEST_RESPONSE_BATCH_H_
#define MFGCP_CORE_BEST_RESPONSE_BATCH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/fpk_batch.h"
#include "core/hjb_batch.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"

// Iterative best-response learning (Algorithm 2), content-batched: the
// fixed-point loop that couples the backward HJB equation (the generic
// player's best response) with the forward FPK equation (the population's
// density evolution), for K contents (the lanes) in lockstep. Each
// iteration, per lane:
//
//   1. estimate the mean-field quantities from (λ, x)            [Eq. 17-18]
//   2. solve the HJB backward under those quantities  -> x_new    [Eq. 20-21]
//   3. relax: x <- (1-γ) x + γ x_new and test convergence         [Alg. 2 l.6]
//   4. solve the FPK forward under x                 -> λ         [Eq. 15]
//
// Theorem 2 guarantees a unique fixed point; the relaxation factor γ only
// affects the path to it (the ablation bench sweeps γ and grid size). The
// HJB/FPK sweeps run on the SoA batch solvers, so the per-node inner loops
// vectorize across lanes; the scalar BestResponseLearner is the one-lane
// view of this learner.
//
// Lane independence (guarded by batch_equivalence_test, the epoch goldens
// and solver_equivalence_test): lane l runs the per-iteration sequence
// above on lane-l data with no cross-lane arithmetic, so its Equilibrium
// does not depend on the batch width or its neighbours. Lanes may converge
// at different iterations; a converged lane drops out of the lockstep loop
// before step 4, while a lane that exhausts max_iterations unconverged
// still runs the trailing FPK sweep of its last loop body.
//
// Failure routing: a lane that fails (divergence, injected fault, ...)
// records its error in its LaneJob::status and stops participating; the
// remaining lanes are unaffected. The epoch path then runs failed lanes
// through the recovery ladder (mfg_cp.cc), whose relaxed retries are lanes
// of the block's next solve on this learner.
//
// Batch residency: the iterate lives in the workspace's [time][node][lane]
// fields for the whole solve (see Workspace), so nothing is gathered or
// scattered per iteration. One lane-parallel estimate per round serves
// both the running lanes' next iteration and the final mean-field refresh
// of the lanes that left in the previous round (that estimate reads the
// lane's final (λ, x) pair); a leaving lane's Equilibrium is written right
// after it. After that write, and for a failed lane from the moment it
// fails, the lane's columns are garbage the kernels may keep computing on
// and nothing reads.
//
// Fault injection: each lane polls kSolve / kFpkStep / kHjbStep /
// kNonConvergence under a lane-local scope with its job's (epoch, content,
// attempt) coordinates, or under the caller's ambient scope when the job
// asks for it (the one-lane views). Firing decisions are purely functional
// in the coordinates, so the determinism contract holds at any parallelism
// and batch width.

namespace mfg::core {

// The converged mean-field equilibrium for one content.
struct Equilibrium {
  HjbSolution hjb;                       // V(t, q) and x*(t, q).
  FpkSolution fpk;                       // λ(t, q).
  std::vector<MeanFieldQuantities> mean_field;  // Per time node.
  std::size_t iterations = 0;
  bool converged = false;
  // Convergence trace, one entry per fixed-point iteration. Both vectors
  // are reserved to max_iterations up front, so the trace records without
  // reallocating inside the solve loop (and benches can reproduce Fig. 9
  // style residual plots from the result alone).
  //   policy_change_history[ψ−1] = max_{t,q} |x^ψ − x^{ψ−1}|
  //   value_change_history[ψ−1]  = max_{t,q} |V^ψ − V^{ψ−1}|
  //     (iteration 1 has no predecessor value surface; its entry is
  //      max |V^1|, the change from the zero initialization).
  std::vector<double> policy_change_history;
  std::vector<double> value_change_history;
  // Mean of hjb.policy over all (t, q) cells, stored by whoever writes the
  // policy (the learner's lane exit, the epoch ladder's static fallback)
  // and bit-equal to MeanCachingRate(hjb.policy) (plan_publication.h), so
  // plan publication reads it instead of walking the policy. Empty when
  // the policy was written by other code, which must then reset it.
  std::optional<double> mean_caching_rate;
};

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
    // This iteration's policy and value residuals, a [2][lane] table.
    numerics::BatchField residuals;
    // Per-lane flags as one [flag][lane] byte table (rows listed in the
    // .cc): in the lockstep loop, left last round and not yet written,
    // served by the next estimate, and each sweep's live lanes.
    std::vector<std::uint8_t> flags;
  };

  // One content's solve request/result. `epoch`/`content`/`attempt` key
  // the fault-injection plan; `out` receives the equilibrium (its storage
  // is reused when it already has the lane's shape).
  struct LaneJob {
    std::size_t epoch = 0;
    std::size_t content = 0;
    std::size_t attempt = 0;  // Recovery-ladder attempt (0 = first solve).
    // Poll faults under the caller's ambient scope instead of the
    // lane-local one: the one-lane BestResponseLearner.
    bool ambient_fault_scope = false;
    // The solve's start. Null runs from the params' initial density after
    // a kSolve poll (BestResponseLearner::SolveInto); otherwise from this
    // density, which must lie on the lane's grid (SolveFromInto). The flat
    // initial policy guess must lie in [0, 1].
    const numerics::Density1D* initial = nullptr;
    double initial_rate = 0.5;
    bool active = false;
    Equilibrium* out = nullptr;
    common::Status status;
  };

  BatchBestResponseLearner() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // SolveInto. Keeps table capacity across calls.
  void Reset(std::size_t num_lanes);

  // Validates and tabulates lane `lane` (the per-lane Rebind). All bound
  // lanes must share the grid shape. Polls the kRebind fault site under
  // the caller's ambient fault scope.
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  std::size_t num_lanes() const { return num_lanes_; }

  // Runs Alg. 2 for every active lane from its job's start (by default the
  // params' initial density and a flat 0.5 policy guess). lanes.size()
  // must equal num_lanes(). Statuses are per lane; the call itself cannot
  // fail globally.
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
