#ifndef MFGCP_CORE_EPOCH_RUNTIME_H_
#define MFGCP_CORE_EPOCH_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/best_response_batch.h"

// Persistent worker pool for the per-content equilibrium solves of Alg. 1
// line 2. The per-content HJB/FPK fixed points are independent, so the
// epoch loop is embarrassingly parallel — but spawning fresh threads and
// fresh solver state every epoch (the old std::async fan-out) costs both
// thread churn and a full re-warm of every buffer. The runtime instead
// keeps `parallelism` threads alive for the lifetime of its owner
// (MfgCpFramework) and gives each worker a long-lived
// BatchBestResponseLearner + Workspace, so a warmed pool runs whole
// epochs with zero steady-state heap allocations.
//
// Determinism contract: a slot's result depends only on that slot's
// inputs — the learner's lanes are fully re-parameterized per attempt
// round via BindLane(), lanes share no arithmetic, every workspace buffer
// is overwritten before it is read, and each slot settles only into its
// own storage. Results are therefore bit-identical
// across worker counts and across schedules (guarded by
// solver_equivalence_test / obs_equivalence_test and the mfg_cp golden
// tests).
//
// Scheduling: slots are grouped into fixed contiguous blocks of
// `block_size` (block b covers [b·B, min(count, (b+1)·B))) and workers
// claim whole blocks through an atomic work-stealing index. Exception:
// while any worker has never solved a slot, the epoch falls back to a
// static round-robin partition (block b -> worker b mod W) so every
// worker warms its workspaces in the first epoch instead of whenever
// stealing happens to feed it — after that, `allocs == 0` holds per
// worker no matter which worker steals which block. The block composition
// depends only on (count, block_size) — never on the claiming order — and
// a block writes only its own slots, so the determinism contract above
// holds at every block size (guarded by epoch_degradation_test at several
// parallelism × batch_width combinations).

namespace mfg::core {

class EpochRuntime {
 public:
  // Job body: solve slots [begin, end) on worker `worker`'s state. A raw
  // function pointer + context (not std::function) so publishing a job
  // never allocates.
  using BlockFn = void (*)(void* ctx, std::size_t worker, std::size_t begin,
                           std::size_t end);

  // Long-lived solver state owned by one worker. The learner is re-bound
  // per attempt round of a block (the block's pending slots as lanes), its
  // buffers reused across epochs; the telemetry fields are rewritten every
  // epoch.
  struct WorkerContext {
    BatchBestResponseLearner batch_learner;
    BatchBestResponseLearner::Workspace batch_workspace;
    std::vector<BatchBestResponseLearner::LaneJob> batch_jobs;
    // Attempt scratch, one pair per lane: lane i of a round builds its
    // params in lane_params[i] and solves into lane_equilibria[i], so an
    // attempt never writes a slot's storage. A settled lane trades its
    // pair with the slot's (SettleSlot in mfg_cp.cc). Grown to the
    // widest block, never shrunk.
    std::vector<Equilibrium> lane_equilibria;
    std::vector<MfgParams> lane_params;
    // Slots of the current block still on the recovery ladder.
    std::vector<std::size_t> pending_slots;
    // Slots this worker solved in the last epoch.
    std::size_t contents_solved = 0;
    // Global operator new calls this worker made in the last epoch (0
    // unless the binary links mfgcp_obs_alloc_hooks).
    std::size_t allocations = 0;
    // True once the worker has solved at least one slot (its buffers are
    // warm); drives the round-robin warmup epoch described above.
    bool warmed = false;
  };

  // Spawns max(1, parallelism) worker contexts. Threads are only created
  // for parallelism > 1; a single-worker runtime runs epochs inline on
  // the calling thread, so serial frameworks stay thread-free.
  explicit EpochRuntime(std::size_t parallelism);
  ~EpochRuntime();

  EpochRuntime(const EpochRuntime&) = delete;
  EpochRuntime& operator=(const EpochRuntime&) = delete;

  // Runs fn(ctx, worker, b·B, min(count, (b+1)·B)) for every block b of
  // `block_size = B` slots in [0, count), blocking until the epoch
  // completes. At B = 1 every block is one slot, so the schedules above
  // are per-slot schedules. A worker's contents_solved counts slots (not
  // blocks). block_size == 0 is treated as 1. Not reentrant: the caller
  // (MfgCpFramework) serializes epochs on this runtime.
  void RunEpochBlocks(std::size_t count, std::size_t block_size, BlockFn fn,
                      void* ctx);

  std::size_t num_workers() const { return contexts_.size(); }
  WorkerContext& worker(std::size_t w) { return contexts_[w]; }
  const WorkerContext& worker(std::size_t w) const { return contexts_[w]; }

  // Sum of the per-worker allocation deltas of the last epoch — the
  // probe behind the `allocs_per_epoch=0` contract (0 unless the binary
  // links mfgcp_obs_alloc_hooks).
  std::size_t last_epoch_allocations() const {
    return last_epoch_allocations_;
  }

 private:
  void WorkerLoop(std::size_t w);
  // Runs worker w's share of the current job and records its telemetry.
  void WorkerEpoch(std::size_t w);

  std::vector<WorkerContext> contexts_;
  std::vector<std::thread> threads_;

  // Job publication. Fields are written under mutex_ before generation_
  // is bumped and read by workers after they observe the bump under the
  // same mutex, which establishes the happens-before edge TSan wants.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t workers_done_ = 0;
  bool shutdown_ = false;
  std::size_t job_count_ = 0;
  BlockFn job_block_fn_ = nullptr;
  std::size_t job_block_size_ = 0;
  void* job_ctx_ = nullptr;
  bool job_round_robin_ = false;
  std::atomic<std::size_t> next_{0};

  std::size_t last_epoch_allocations_ = 0;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_EPOCH_RUNTIME_H_
