#ifndef MFGCP_SERVE_SERVE_LOOP_H_
#define MFGCP_SERVE_SERVE_LOOP_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/request_cache.h"
#include "common/status.h"
#include "core/epoch_health.h"
#include "core/plan_publication.h"
#include "obs/epoch_record.h"
#include "serve/plan_interpolator.h"
#include "serve/serve_clock.h"
#include "sim/gauntlet.h"
#include "sim/request_engine.h"
#include "sim/request_stream.h"

// The online serving runtime (ARCHITECTURE.md §8): a long-lived loop that
// serves a request stream on a wall-clock tick schedule while the MFG-CP
// planner re-plans epochs on a dedicated planner thread. This is the
// ROADMAP "Online serving runtime" item: the same MfgPlanReplanHook the
// batch gauntlet replays through, driven as a service instead of a replay
// pass.
//
// Structure per tick:
//   1. advance simulated time by tick · timescale (ServeClock; timescale
//      inf = unpaced, drain as fast as possible),
//   2. drain arrived requests through the *front* placement with the
//      sim::RequestLedger drain ReplayInto uses (StaticSetCache::OnRequest
//      is a read-only probe, so re-placing the back cache never races
//      it), running HandleBoundary at each epoch boundary crossed:
//      publish the planner thread's plan, post the finished epoch's
//      counts as the next planning job,
//   3. answer mid-epoch mean-field queries by linear interpolation
//      between the last two published plans (PlanInterpolator).
//
// Planning deadline (plan_deadline_ms):
//   0 (default) — synchronous boundaries: the serve thread blocks until
//     the planner finishes, which makes serving at timescale inf
//     *bit-identical* to the batch gauntlet replay (the determinism
//     contract; guarded by tests/serve/serve_equivalence_test.cc). The
//     kPlanDeadline fault site can still force a deterministic
//     deferred-publication epoch for chaos testing.
//   > 0 — asynchronous: the boundary posts the job and keeps serving the
//     previous plan. A plan that completes within the deadline publishes
//     at the completion tick; an overrun tick publishes nothing — the
//     miss is counted (serve.plan_deadline_misses, the new kPlanDeadline
//     degradation path riding the PR 4 recovery ladder and the PR 5
//     health reports) and the late plan swaps in at the next boundary. A
//     boundary reached while the planner is still busy skips its plan
//     round entirely (counts into skipped_plan_rounds).
//
// Hot-path contract: after the loop has warmed up (two publications), the
// serve thread performs zero heap allocations per tick — guarded by
// tests/serve/serve_alloc_test.cc and bench_serve's allocs_per_tick=0
// counter. Fault-injected boundaries (kReplan/kPlanDeadline) may allocate
// for their WARN logs and degraded-health copies; the healthy path never
// does.

namespace mfg::serve {

struct ServeOptions {
  // Catalog shape, cache capacity, delay model, and the epoch period
  // (sim-time between replans; must be > 0 — a serving runtime exists to
  // re-plan). num_contents must match the stream.
  sim::RequestEngineOptions engine;
  // Planner knobs (the gauntlet's replan hook, reused verbatim).
  sim::MfgPlanReplanHook::Options plan;
  // Tick schedule and sim-time/wall-clock ratio.
  ServeClockOptions clock;
  // Wall-clock budget per plan round in ms; 0 = synchronous boundaries
  // (see the header comment).
  double plan_deadline_ms = 0.0;
  // Test/bench knob: the planner thread sleeps this long before each
  // plan round, simulating a slow planner without faking clocks.
  double synthetic_plan_delay_ms = 0.0;
  // Zipf skew of the popularity prior seeding the initial placement and
  // the planner catalog (matches the stream generator's zipf_iota).
  double zipf_iota = 0.8;
  // Per-epoch JSONL rows ("" = none), written by Run after the loop
  // finishes (never from the tick path) with WriteServeJsonl;
  // scripts/check_serve.py validates the file.
  std::string jsonl_path;
  // Live introspection plane (obs/exporter.h, OBSERVABILITY.md "Live
  // introspection"): admin_port >= 0 makes Create start the process-wide
  // admin endpoint on 127.0.0.1 when none is active yet (0 = ephemeral
  // port — query obs::AdminPort()); the loop then feeds /epochz one
  // record per publication. Negative leaves the admin plane untouched.
  // Inert when built with -DMFGCP_OBS=OFF (plain fields, no obs types).
  int admin_port = -1;
  // /epochz ring capacity when this loop starts the exporter.
  std::size_t epochz_capacity = 64;
  // Called on the *planner thread* after every completed plan round with
  // the live plan buffer and its health report, before publication. The
  // chaos soak recounts ladder outcomes through this. May be null.
  std::function<void(const core::EpochPlanBuffer&,
                     const core::EpochHealthReport&)>
      on_plan;
};

// One published plan: the plan round's record with its serving group
// filled (obs/epoch_record.h). The alias keeps the serving-runtime
// spelling for callers.
using ServeEpochRow = obs::EpochRecord;

struct ServeStats {
  // Request-level ledger (sim::RequestLedger, as in ReplayInto) —
  // EXPECT_EQ-comparable to a gauntlet replay of the same stream when
  // every boundary plans synchronously.
  sim::RequestReplayStats requests;
  std::uint64_t ticks = 0;
  std::uint64_t publications = 0;       // Plans swapped in.
  std::uint64_t plan_rounds = 0;        // Plan jobs dispatched.
  std::uint64_t deadline_misses = 0;    // kPlanDeadline degradations.
  std::uint64_t skipped_plan_rounds = 0;  // Boundaries with a busy planner.
  std::uint64_t failed_epochs = 0;      // Plan rounds with health.failed > 0.
  // Serve-thread heap allocations over the steady window (from the
  // second publication to the end of the loop) and the ticks it spans;
  // 0 allocations once warmed, and 0 unless mfgcp_obs_alloc_hooks is
  // linked.
  std::size_t steady_allocs = 0;
  std::uint64_t steady_ticks = 0;
  double wall_seconds = 0.0;
  // One row per publication, seq order; `epoch` is the boundary whose
  // counts fed the plan.
  std::vector<obs::EpochRecord> rows;
};

// Writes `stats` to options.jsonl_path: one {"type":"epoch"} row per
// publication — the obs::EpochRecord fields, spelled as /epochz spells
// them — then one {"type":"summary"} row.
common::Status WriteServeJsonl(const ServeStats& stats,
                               const ServeOptions& options);

class ServeLoop {
 public:
  static common::StatusOr<std::unique_ptr<ServeLoop>> Create(
      const ServeOptions& options);
  ~ServeLoop();

  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  // Serves `stream` to completion (the replayed-stream mode; a live
  // ingestion front end would append to the stream the cursor tails).
  // `stats` is reset first. Run may be called again on the same loop;
  // planner carry-forward state (last-good equilibria, the fault-plan
  // epoch index) persists across runs like a long-lived daemon's would.
  common::Status Run(const sim::RequestStream& stream, ServeStats& stats);

  // Shuts the planner thread down, draining (never abandoning) a posted
  // or in-flight plan round first, so the plan buffers and the replan
  // hook are guaranteed idle afterwards — the ordering the destructor
  // relies on before members are torn down. Idempotent; a later Run
  // respawns the planner, so stop/start cycles work like a daemon reload
  // (tests/serve/serve_lifecycle_test.cc). A Run in progress on another
  // thread sees its remaining boundaries skip their plan rounds and
  // finishes serving on the last published placement.
  void Stop();

  // The placement currently serving (front buffer).
  std::span<const std::uint32_t> placement() const {
    return front_->placement();
  }
  const PlanInterpolator& interpolator() const { return interpolator_; }
  // Health report of the last completed plan round, including any
  // deadline miss, mean price and tick percentiles charged to it.
  const core::EpochHealthReport& last_health() const { return last_health_; }
  const core::MfgCpFramework& framework() const {
    return hook_->framework();
  }
  const ServeOptions& options() const { return options_; }

 private:
  struct RunState;

  explicit ServeLoop(const ServeOptions& options);

  common::Status RunLoop(const sim::RequestStream& stream, ServeStats& stats);
  void PlannerMain();
  void HandleBoundary(RunState& state);
  // False when the loop is shut down (no planner to serve the job); the
  // boundary then counts as a skipped plan round.
  bool PostPlanJob();
  bool JobDone();
  void WaitForJob();
  // Collects a finished plan round: copies health, charges any deadline
  // miss, and either publishes or defers to the next boundary.
  void FinishJob(RunState& state);
  void Publish(RunState& state);
  // Counts the job's deadline miss once (async overrun ticks).
  void CountDeadlineMiss(RunState& state);
  // Async: counts an in-flight round's overrun once; collects it if done.
  void PollAsyncJob(RunState& state);

  ServeOptions options_;
  ServeClock clock_;
  std::unique_ptr<sim::MfgPlanReplanHook> hook_;
  std::vector<double> prior_;

  // Double-buffered placements: the serve path probes front_, the
  // planner thread re-places back_; Publish swaps the pointers on the
  // serve thread while no plan job is in flight.
  baselines::StaticSetCache cache_a_{"MFG-CP"};
  baselines::StaticSetCache cache_b_{"MFG-CP"};
  baselines::StaticSetCache* front_ = &cache_a_;
  baselines::StaticSetCache* back_ = &cache_b_;

  // Plan artifacts handed planner → serve (the hook's snapshot and
  // health are written only while a job is in flight, and read only after
  // the done handshake).
  PlanInterpolator interpolator_;
  core::EpochHealthReport last_health_;

  // Per-epoch counts, request ledger and boundary clock.
  sim::RequestLedger ledger_;
  sim::RequestStreamCursor cursor_;

  // Planner-thread job channel.
  std::mutex mutex_;
  std::condition_variable cv_;
  bool job_posted_ = false;
  bool job_done_ = false;
  bool shutdown_ = false;
  std::size_t job_epoch_ = 0;
  std::vector<std::uint64_t> job_counts_;
  common::Status job_status_;
  baselines::StaticSetCache* job_cache_ = nullptr;

  // Serve-side view of the in-flight round (no locking needed; only the
  // serve thread reads or writes these).
  bool job_running_ = false;
  bool job_miss_counted_ = false;
  std::chrono::steady_clock::time_point job_deadline_{};
  std::chrono::steady_clock::time_point job_post_time_{};
  bool plan_pending_ = false;
  // True when Create started the process-wide admin exporter (and the
  // destructor must stop it).
  bool started_admin_ = false;

  std::thread planner_;
};

}  // namespace mfg::serve

#endif  // MFGCP_SERVE_SERVE_LOOP_H_
