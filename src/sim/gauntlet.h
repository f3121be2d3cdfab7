#ifndef MFGCP_SIM_GAUNTLET_H_
#define MFGCP_SIM_GAUNTLET_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/request_cache.h"
#include "common/status.h"
#include "content/trace.h"
#include "core/mfg_cp.h"
#include "core/plan_publication.h"
#include "sim/request_engine.h"
#include "sim/request_stream.h"

// The baseline gauntlet: one request stream replayed through every
// scheme at a sweep of cache capacities, producing the paper-style
// hit-ratio / access-delay / backhaul comparison curves at request
// granularity (EXPERIMENTS.md "Baseline gauntlet"; bench_gauntlet is the
// CLI driver).
//
// Schemes:
//   MFG-CP — plan-driven: at every epoch boundary the replay hands the
//     finished epoch's per-content request counts to
//     MfgCpFramework::PlanEpochInto (the allocation-free epoch path on
//     the persistent worker pool) and re-places the cache from the
//     resulting plan. Bit-identical statistics at any planner
//     parallelism / batch width, per the plan buffer's own contract.
//   LRU / LFU / PG — online request-granular baselines
//     (baselines/request_cache.h).
//   MPC — static most-popular: top-capacity of the Zipf prior, fixed.
//   OPT — offline upper bound for static placements: top-capacity of the
//     *realized* whole-stream request counts. No static placement beats
//     it on hit ratio (check_gauntlet.py asserts this).
//
// Every (scheme, capacity) cell replays the identical stream (common
// random numbers), so curve gaps are scheme effects, not sampling noise.

namespace mfg::sim {

enum class GauntletScheme : std::uint8_t {
  kMfgPlan = 0,
  kLru,
  kLfu,
  kPopularityGreedy,
  kStaticMostPopular,
  kOfflineBound,
};

// "MFG-CP", "LRU", "LFU", "PG", "MPC", "OPT".
std::string_view GauntletSchemeName(GauntletScheme scheme);

// Parses a scheme name (as printed by GauntletSchemeName); returns false
// (out untouched) on anything else.
bool ParseGauntletScheme(std::string_view text, GauntletScheme& out);

// All schemes, in the order above.
std::vector<GauntletScheme> AllGauntletSchemes();

// Replan hook feeding the MFG-CP plan into a StaticSetCache placement:
// per boundary, update the epoch observation from the finished epoch's
// counts, run PlanEpochInto on the persistent worker pool (filling
// last_health()), snapshot the plan (core::SnapshotPublishedPlan: scores
// of popularity · planned mean caching rate, plus the per-content rate
// and price aggregates the serving runtime publishes), and re-place the
// cache with the top-capacity scores. The plan buffer persists across
// epochs, so the planner stays on its warmed zero-allocation path and
// the recovery ladder's carry-forward state survives.
class MfgPlanReplanHook final : public ReplanHook {
 public:
  struct Options {
    core::MfgCpOptions planner;
    // Constant per-epoch observation fields the request stream does not
    // carry (the engine observes counts only).
    double mean_timeliness = 2.5;
    double mean_remaining = 70.0;
  };

  // Builds the planner over a homogeneous catalog with a Zipf prior
  // matching the stream options.
  static common::StatusOr<std::unique_ptr<MfgPlanReplanHook>> Create(
      const Options& options, std::size_t num_contents, double content_size_mb,
      double zipf_iota);

  common::Status OnEpochBoundary(
      std::size_t epoch, std::span<const std::uint64_t> epoch_counts,
      baselines::RequestCachePolicy& policy) override;

  const core::EpochPlanBuffer& plan_buffer() const { return plan_buffer_; }
  const core::MfgCpFramework& framework() const { return framework_; }
  // The last boundary's health report (valid after the first
  // OnEpochBoundary).
  const core::EpochHealthReport& last_health() const { return last_health_; }
  // The last successful boundary's plan snapshot; `epoch` is that
  // boundary's index.
  const core::PublishedPlan& published() const { return published_; }

 private:
  MfgPlanReplanHook(const Options& options, core::MfgCpFramework framework)
      : options_(options), framework_(std::move(framework)) {}

  Options options_;
  core::MfgCpFramework framework_;
  core::EpochPlanBuffer plan_buffer_;
  core::EpochObservation observation_;
  core::EpochHealthReport last_health_;
  core::PublishedPlan published_;
};

struct GauntletOptions {
  RequestStreamOptions stream;
  // cache_capacity is overwritten by each sweep entry; num_contents and
  // content_size_mb must agree with `stream` and the planner catalog.
  RequestEngineOptions engine;
  std::vector<std::size_t> capacities = {4};
  std::vector<GauntletScheme> schemes;  // Empty = AllGauntletSchemes().
  MfgPlanReplanHook::Options plan;
  // Trace for ArrivalProcess::kTrace streams (borrowed; may be null for
  // Poisson).
  const content::Trace* trace = nullptr;
};

struct GauntletOutcome {
  std::string scheme;
  std::size_t capacity = 0;
  RequestReplayStats stats;
  double replay_seconds = 0.0;  // Wall time of this cell's replay.
};

// Runs the full schemes × capacities sweep over one generated stream.
common::StatusOr<std::vector<GauntletOutcome>> RunGauntlet(
    const GauntletOptions& options);

// Plot-ready CSV, one row per (scheme, capacity) cell:
//   scheme,capacity,requests,hits,misses,hit_ratio,mean_delay,
//   backhaul_mb,backhaul_rate,replans,replan_faults,replay_seconds
// scripts/check_gauntlet.py validates a written file.
std::string GauntletOutcomesCsv(const std::vector<GauntletOutcome>& outcomes);

// Writes GauntletOutcomesCsv(outcomes) to `path`.
common::Status WriteGauntletCsv(const std::string& path,
                                const std::vector<GauntletOutcome>& outcomes);

}  // namespace mfg::sim

#endif  // MFGCP_SIM_GAUNTLET_H_
