#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/request_cache.h"
#include "common/status.h"
#include "content/trace.h"
#include "serve/serve_loop.h"
#include "sim/gauntlet.h"
#include "sim/request_engine.h"
#include "sim/request_stream.h"
#include "spans.h"

// The benchmark's three passes over one workload, driven only through the
// library's public entry points:
//   replan  — sim::RequestEngine::ReplayInto with the MFG-CP replan hook
//             (sim::MfgPlanReplanHook) wrapped in a timing hook;
//   request — ReplayInto through LRU/LFU/PG/static placements with no hook,
//             plus one unpaced synchronous serve::ServeLoop::Run that never
//             reaches an epoch boundary (request path only);
//   serve   — serve::ServeLoop::Run paced in wall-clock time with an
//             asynchronous plan deadline beside the serve thread.
// Every workload runs all three; a workload's time shares decide which
// pass dominates its run. The passes take turns in kSlices slices, so a
// slow spell of a shared host (seconds long) touches every metric a little
// instead of one metric wholly.

namespace perfbench {

// Stream and planner constants shared by every workload.
inline constexpr double kArrivalRate = 1000.0;    // Requests per sim unit.
inline constexpr double kEpochPeriod = 25.0;      // Sim units per epoch.
inline constexpr double kTraceDayPeriod = 50.0;   // Sim units per trace day.
inline constexpr std::size_t kTraceDays = 30;
inline constexpr double kZipfIota = 0.8;
// Paced serving: one epoch every 300 ms of wall time, 0.5 ms ticks, and a
// plan deadline several times the measured plan time.
inline constexpr double kServeEpochWallSeconds = 0.3;
inline constexpr double kServeTickMs = 0.5;
inline constexpr double kServeDeadlineMs = 240.0;
inline constexpr int kSlices = 4;

struct WorkloadSpec {
  std::string_view name;
  mfg::sim::ArrivalProcess arrival;
  std::size_t num_contents;
  std::size_t capacity;
  // Planner K' target: 0 plans every requested content (Alg. 1's default
  // min_requests); otherwise min_requests is set to the expected epoch
  // count of the content at this Zipf rank, so the planner covers the
  // catalog head.
  std::size_t planned_contents;
  std::size_t replan_epochs;  // Boundaries per replanning replay.
  std::size_t request_stream_requests;
  // Shares of --seconds given to the replan, request and serve passes.
  double replan_share;
  double request_share;
  double serve_share;
};

// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::size_t replan_parallelism = 1;  // Planner workers of the replan pass.
  std::size_t serve_parallelism = 1;   // Planner workers beside the serve
                                       // thread in the serve pass.
};

// Collects correctness-gate failures; any failure fails the run.
class Gate {
 public:
  void Expect(bool ok, const std::string& what);
  bool passed() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// Everything one run builds before it measures: the inputs generated from
// the seed, the planners and serving loops, and warm-up replans.
struct Setup {
  mfg::content::Trace trace;  // kTrace workloads only.
  mfg::sim::RequestStream replan_stream;
  mfg::sim::RequestStream request_stream;
  mfg::sim::RequestStream serve_stream;
  std::vector<double> prior;  // Zipf prior of the catalog.
  mfg::sim::RequestEngineOptions engine;        // Replan pass.
  mfg::sim::RequestEngineOptions static_engine;  // Request pass (no boundary).
  mfg::sim::MfgPlanReplanHook::Options plan;     // Replan pass planner.
  std::unique_ptr<mfg::sim::MfgPlanReplanHook> replan_hook;
  std::unique_ptr<mfg::serve::ServeLoop> request_loop;  // Unpaced, no plan.
  std::unique_ptr<mfg::serve::ServeLoop> serve_loop;    // Paced, async.
  double serve_timescale = 0.0;  // Sim units per wall second.
};

mfg::common::StatusOr<std::unique_ptr<Setup>> BuildSetup(
    const RunConfig& config);

// A planner over the setup's catalog at another parallelism (the gate's
// parallelism-1 reference).
mfg::common::StatusOr<std::unique_ptr<mfg::sim::MfgPlanReplanHook>>
CreateReplanHook(const Setup& setup, std::size_t parallelism);

struct ReplanPassResult {
  std::vector<double> replan_seconds;         // One per boundary.
  std::vector<double> replay_seconds;         // One per untraced replay.
  std::vector<double> traced_replay_seconds;  // One per traced replay.
  std::size_t replays = 0;
  double requests = 0.0;
  mfg::sim::RequestReplayStats stats;  // Of the first replay.
  std::size_t boundaries = 0;
  std::size_t failed_boundaries = 0;  // Replan fault or a failed/fallback slot.
  std::size_t active_slots = 0;
  std::size_t solved_slots = 0;
  double worker_share_sum = 0.0;  // Busiest worker's share of the slots.
  std::size_t worker_share_count = 0;
  // Planner-pool allocations of the warmed untraced replays. Reported,
  // not gated: a worker whose block width changes rebuilds its lane
  // estimators, which the library does whenever K' is not a multiple of
  // the batch width.
  std::size_t pool_allocations = 0;
};

// Replays the replan stream through the timed MFG-CP hook. Each Run adds
// to result(); the replay workspace and cache persist across runs, so only
// the first replay of the pass warms them.
class ReplanPass {
 public:
  explicit ReplanPass(Setup& setup);

  // Replays until `budget_seconds` have passed (at least once). With
  // `spans` set, odd replays record spans and even ones do not, so the two
  // interleaved series give the tracing overhead.
  void Run(double budget_seconds, SpanRecorder* spans, Gate& gate);
  const ReplanPassResult& result() const { return result_; }

 private:
  Setup& setup_;
  mfg::sim::RequestEngine engine_;
  mfg::sim::RequestEngine::Workspace workspace_;
  mfg::baselines::StaticSetCache cache_;
  ReplanPassResult result_;
};

struct CaptureResult {
  mfg::sim::RequestReplayStats stats;
  std::vector<std::vector<std::uint64_t>> counts;  // Per boundary.
  // FNV-1a hash of every non-failed plan's value and policy tables, in
  // replay order: equal lists mean bit-identical plans (barring a hash
  // collision).
  std::vector<std::uint64_t> plan_hashes;
  // ExploitabilityReport::RelativeGap of the same plans (only when asked
  // for). Every plan is sampled: single gaps sit near the solver tolerance
  // and scatter widely, their mean over thousands does not.
  std::vector<double> gaps;
};

// One untimed replay of the replan stream through `hook`, copying every
// boundary's counts and hashing every plan; with `exploitability` set it
// also computes every plan's exploitability.
mfg::common::StatusOr<CaptureResult> CaptureReplay(
    const Setup& setup, mfg::sim::MfgPlanReplanHook& hook, bool exploitability,
    Gate& gate);

struct RequestPassResult {
  std::vector<double> round_rates;  // Requests per second of each round.
  double requests = 0.0;
};

// The request path alone: ReplayInto through LRU, LFU, PG and the static
// (MPC) placement with no hook, then the unpaced ServeLoop that never
// reaches a boundary, one round at a time. Each Run adds to result().
class RequestPass {
 public:
  explicit RequestPass(Setup& setup);

  // Runs rounds until `budget_seconds` have passed (at least one).
  void Run(double budget_seconds, SpanRecorder* spans, Gate& gate);
  const RequestPassResult& result() const { return result_; }

 private:
  void CheckOfflineBound(double static_hit_ratio, Gate& gate);

  Setup& setup_;
  mfg::sim::RequestEngine engine_;
  mfg::sim::RequestEngine::Workspace workspace_;
  mfg::baselines::LruCache lru_;
  mfg::baselines::LfuCache lfu_;
  mfg::baselines::PopularityGreedyCache greedy_;
  mfg::baselines::StaticSetCache fixed_;
  mfg::serve::ServeStats serve_stats_;
  RequestPassResult result_;
};

struct ServePassResult {
  std::uint64_t requests = 0;
  std::uint64_t plan_rounds = 0;
  std::uint64_t skipped_plan_rounds = 0;
  std::uint64_t deadline_misses = 0;
  std::vector<double> lag_ms;   // Boundary -> publication, wall ms.
  std::vector<double> plan_ms;  // ServeEpochRow::plan_seconds in ms.
};

// One paced ServeLoop::Run over the serve stream, adding to `result`.
void RunServePass(Setup& setup, SpanRecorder* spans, Gate& gate,
                  ServePassResult& result);

// Peak resident set of the process in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
