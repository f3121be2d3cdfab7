#ifndef MFGCP_CORE_MFG_CP_H_
#define MFGCP_CORE_MFG_CP_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "content/catalog.h"
#include "content/popularity.h"
#include "content/timeliness.h"
#include "core/best_response.h"
#include "core/epoch_health.h"
#include "core/epoch_runtime.h"
#include "core/policy.h"

// The MFG-CP framework (Algorithm 1): per optimization epoch, from the
// recorded requests, (i) update content popularity (Eq. 3) and timeliness
// (Def. 2), (ii) determine the content set K' that needs caching, (iii)
// run the iterative best-response learner (Alg. 2) per content to obtain
// the equilibrium caching policy, and hand the policies to the trading
// phase (the agent simulator or an application).
//
// Because the equilibrium is a property of the *population* (mean field),
// one plan serves every EDP — this is exactly why the per-epoch cost is
// O(K ψ_th), independent of M (paper's Remark; reproduced by Table II).
//
// The per-content solves run on a persistent EpochRuntime worker pool
// owned by the framework (created at Create, joined at destruction); see
// epoch_runtime.h for the threading and determinism contract, and
// ARCHITECTURE.md for the epoch data flow.

namespace mfg::core {

// The per-content recovery ladder PlanEpochInto runs when a solve fails or
// does not converge (ARCHITECTURE.md §5 "Epoch failure handling"). The
// ladder degrades per content instead of failing per epoch: up to
// kLadderMaxRetries relaxed retries, then the content's last-good
// equilibrium, then a static most-popular-style policy. Only numerical
// failures (kNumericalError / kInternal) are recovered; configuration
// errors (kInvalidArgument, ...) still fail the slot — and the epoch —
// because retrying cannot fix a bad input. The relaxation schedule is fixed
// (mfg_cp.cc), so a slot's ladder depends on its own inputs alone.
inline constexpr std::size_t kLadderMaxRetries = 2;

// Per-epoch equilibrium-quality probe (ε-Nash exploitability and
// mean-field consistency residual; see equilibrium_metrics.h). The probe
// runs on the calling thread *after* the worker pool finishes, so it is
// allowed to allocate — it never touches the zero-allocation solve path.
// Results land in the eq.* registry gauges and EpochHealthReport.
struct EquilibriumProbeOptions {
  bool enabled = false;
  // Slots probed per epoch, rotated round-robin across epochs so every
  // content is eventually covered. 0 = probe every active slot.
  std::size_t max_contents = 4;
};

struct MfgCpOptions {
  // Template parameters; PlanEpoch overwrites the per-content fields
  // (popularity, timeliness, num_requests, content_size).
  MfgParams base_params;
  // Requests below this rate leave a content out of K' (Alg. 1 line 5
  // requires at least one request).
  double min_requests = 0.5;
  // Worker threads for the per-content equilibrium solves (Alg. 1 line 2:
  // EDPs plan "in parallel"; the per-content problems are independent).
  // 1 = serial (no threads are spawned). Results are bit-identical for
  // every value.
  std::size_t parallelism = 1;
  // Contents solved together as one SoA batch (the lanes of the batched
  // HJB/FPK/best-response solvers; see ARCHITECTURE.md "Batched solver
  // layer"). Workers claim contiguous blocks of this many contents; lanes
  // share no arithmetic, so results stay bit-identical for every value.
  // 1 runs the same block path one content at a time.
  std::size_t batch_width = 8;
  // Equilibrium-quality gauge stage (see EquilibriumProbeOptions above).
  EquilibriumProbeOptions eq_probe;
};

// What the framework observes about one epoch (aggregated per content).
struct EpochObservation {
  std::vector<std::size_t> request_counts;  // |I_k| per content.
  std::vector<double> mean_timeliness;      // L_k per content.
  std::vector<double> mean_remaining;       // Current q_k per content.
};

// The epoch's plan: per content, an optional equilibrium policy.
struct EpochPlan {
  std::vector<bool> active;          // active[k]: k ∈ K'.
  std::vector<double> popularity;    // Updated Π_k (Eq. 3).
  // policies[k] is null for inactive contents.
  std::vector<std::shared_ptr<MfgPolicy>> policies;
  std::vector<Equilibrium> equilibria;  // Only for active contents,
  std::vector<std::size_t> equilibrium_content;  // parallel content ids.
};

// How one content slot got its equilibrium this epoch.
enum class SlotOutcome : std::uint8_t {
  kSolved = 0,        // Clean solve on the first attempt.
  kRetried,           // Needed at least one relaxed retry.
  kCarriedForward,    // Reused the content's last-good equilibrium.
  kFallback,          // Static most-popular-style policy.
  kFailed,            // Nothing worked; the slot status holds the error.
};

// One solved content from PlanEpochInto; `content` says which catalog
// entry this slot solved in the current epoch. The params/equilibrium pair
// is that content's one storage (see EpochPlanBuffer): read it, but do not
// move from or write it, or the content's last good goes with it.
struct EpochContentResult {
  content::ContentId content = 0;
  MfgParams params;
  Equilibrium equilibrium;
  // Solve attempts this epoch (1 = clean first solve; carried-forward and
  // fallback slots report how many attempts failed before the ladder gave
  // up on solving).
  std::size_t attempts = 0;
};

// Caller-owned, reusable output of PlanEpochInto — the allocation-free
// counterpart of EpochPlan (no policy objects, no shared_ptrs). `results`
// and `statuses` are grown to the high-water count of active contents and
// never shrunk; only the first `num_active` entries describe the current
// epoch.
//
// Storage: every content owns at most one shaped params + Equilibrium
// pair, which moves by O(1) swaps between its last_good home and the slot
// it occupies:
//   - at K' selection, each slot of the last epoch swaps its pair back
//     home, then each active content's home swaps into its new slot, so a
//     slot starts the epoch holding its content's last good;
//   - attempts solve into the worker's per-lane scratch
//     (EpochRuntime::WorkerContext), never into a slot; a converged lane
//     swaps with its slot and becomes the new last good, a carried-forward
//     slot keeps what it holds, and the static fallback is built in place;
//   - a shipped unconverged iterate is the one exception: its content's
//     last good goes home, the iterate takes a second object (copied in),
//     and that object is dropped at the next K' selection.
// So while content k is active, last_good[k] is hollow and results[slot]
// holds its storage; entries past num_active are hollow. A content's
// first converged result allocates its storage (a copy from the lane
// scratch); every later epoch only swaps.
struct EpochPlanBuffer {
  std::vector<bool> active;        // active[k]: k ∈ K'.
  std::vector<double> popularity;  // Updated Π_k (Eq. 3).
  std::vector<EpochContentResult> results;
  std::vector<common::Status> statuses;  // Per-slot solve status.
  std::vector<SlotOutcome> outcomes;     // Per-slot ladder outcome.
  std::size_t num_active = 0;

  // Carry-forward source, indexed by content id (grown to the catalog size
  // on first plan, never shrunk). `valid` is the ladder's source of truth:
  // content k has converged at least once, and its last converged params +
  // equilibrium are what its storage holds. That storage sits here while
  // k is out of K' and in k's slot while k is active (see above), so a
  // failed solve's slot already holds the equilibrium it carries forward.
  // Clearing `valid` makes the ladder skip to the static fallback.
  struct LastGood {
    bool valid = false;
    MfgParams params;
    Equilibrium equilibrium;
  };
  std::vector<LastGood> last_good;

  // Epochs planned into this buffer so far. Keys the fault-injection
  // plan (faults::FaultSpec::epoch) and the degradation WARN logs.
  std::size_t epoch_index = 0;
};

class MfgCpFramework {
 public:
  static common::StatusOr<MfgCpFramework> Create(
      const MfgCpOptions& options, const content::Catalog& catalog,
      const content::PopularityModel& popularity,
      const content::TimelinessModel& timeliness);

  // Runs one epoch of Alg. 1 (lines 4–10). Fails if the observation's
  // arity does not match the catalog. Convenience wrapper over
  // PlanEpochInto that also builds the MfgPolicy objects.
  common::StatusOr<EpochPlan> PlanEpoch(const EpochObservation& obs) const;

  // Hot path of Alg. 1: like PlanEpoch, but writes into a caller-owned
  // buffer and skips the (allocating) MfgPolicy convenience layer. Zero
  // steady-state heap allocations once the worker pool and `buffer` have
  // warmed up, for a catalog whose contents share one grid shape (a
  // content-size change re-warms that worker's buffers once).
  //
  // Failure handling: a per-content numerical failure runs the recovery
  // ladder (see kLadderMaxRetries) instead of failing the epoch — the slot
  // is retried with relaxed learning controls, as a lane of its block's
  // next solve, then filled from the content's last-good equilibrium or a
  // static fallback, and `buffer.outcomes` records which rung served it.
  // The call only returns an error when a slot exhausts the ladder (or
  // hits a non-recoverable configuration error); the message then
  // aggregates *every* failed content, and the per-slot `statuses` stay
  // intact for finer-grained recovery.
  //
  // When `health` is non-null it is filled with this epoch's
  // EpochHealthReport (ladder tallies, best-response counter deltas, wall
  // time, degraded content ids) — including on error return, so callers
  // can log what degraded. Passing null skips the assembly entirely; the
  // report itself reuses the caller's vector capacity, keeping the
  // steady-state zero-allocation contract either way.
  common::Status PlanEpochInto(const EpochObservation& obs,
                               EpochPlanBuffer& buffer,
                               EpochHealthReport* health = nullptr) const;

  // Builds the per-content MfgParams PlanEpoch would use; exposed so
  // benches can solve single contents directly.
  common::StatusOr<MfgParams> ContentParams(content::ContentId k,
                                            double popularity,
                                            double timeliness,
                                            double num_requests) const;

  const MfgCpOptions& options() const { return options_; }
  const content::Catalog& catalog() const { return catalog_; }

  // Telemetry view of the persistent worker pool (per-worker solve counts
  // and allocation deltas of the last epoch).
  const EpochRuntime& epoch_runtime() const { return state_->runtime; }

 private:
  // Pool + the mutex serializing epochs on it. Heap-allocated so the
  // framework stays movable (StatusOr requires it) while the worker
  // threads keep a stable address to synchronize against.
  struct PlanState {
    explicit PlanState(std::size_t parallelism) : runtime(parallelism) {}
    std::mutex mutex;
    EpochRuntime runtime;
  };

  MfgCpFramework(const MfgCpOptions& options, content::Catalog catalog,
                 content::PopularityModel popularity,
                 content::TimelinessModel timeliness,
                 std::unique_ptr<PlanState> state)
      : options_(options),
        catalog_(std::move(catalog)),
        popularity_(std::move(popularity)),
        timeliness_(std::move(timeliness)),
        state_(std::move(state)) {}

  MfgCpOptions options_;
  content::Catalog catalog_;
  content::PopularityModel popularity_;
  content::TimelinessModel timeliness_;
  std::unique_ptr<PlanState> state_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_MFG_CP_H_
