#ifndef MFGCP_SIM_EPOCH_RUNNER_H_
#define MFGCP_SIM_EPOCH_RUNNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/epoch_health.h"
#include "core/mfg_cp.h"
#include "sim/simulator.h"

// Multi-epoch orchestration of Algorithm 1: for each optimization epoch,
// observe the workload, run the MFG-CP planner (popularity update + K'
// selection + per-content equilibria), deploy the policies into the
// market simulator, and carry the resulting cache levels into the next
// epoch. This is the full "while each optimization epoch" outer loop the
// paper describes; the trace-driven example is a thin wrapper around it.

namespace mfg::sim {

struct EpochRunnerOptions {
  // Per-epoch simulator configuration (M, J, K, slots, market...). The
  // per-epoch seed is simulator.seed + epoch so epochs differ but the
  // whole run stays reproducible.
  SimulatorOptions simulator;
  core::MfgCpOptions planner;
  std::size_t num_epochs = 3;
  // Per-epoch request-mix weights (epoch_weights[e][k], rows normalized
  // internally). Empty = the Zipf prior for every epoch.
  std::vector<std::vector<double>> epoch_weights;
  // Scale of the request counts handed to the planner's popularity update
  // (Eq. 3): observed requests per epoch across the catalog.
  double observed_requests = 200.0;
  // Mean initial remaining-space fraction of epoch 0 (later epochs carry
  // the simulated end state forward).
  double initial_fill_frac = 0.7;
};

struct EpochOutcome {
  std::size_t epoch = 0;
  // Full per-epoch planner health report: |K'| solved, plan wall time,
  // ladder tallies (contents served by a relaxed retry, a carried-forward
  // equilibrium or the static fallback rather than a clean first-attempt
  // solve), best-response counter deltas, degraded content ids.
  // Zero-valued for scheme runs, which never invoke the planner.
  core::EpochHealthReport health;
  SimulationResult result;           // The epoch's market outcome.
};

// Plot-ready CSV of a multi-epoch run, one row per epoch: the runner's
// epoch, the obs::EpochRecord planner group (obs/epoch_record.h) from
// EpochOutcome::health, then degraded_contents, mean_utility and
// hit_ratio:
//   epoch,active,plan_seconds,solved,retried,carried_forward,fallback,
//   failed,best_response_solves,...,eq_price_max,degraded_contents,
//   mean_utility,hit_ratio
// The planner columns are all zero for scheme runs; degraded_contents is
// the ids joined with ';' ("" when the epoch was healthy) so the row stays
// one field.
std::string EpochOutcomesCsv(const std::vector<EpochOutcome>& outcomes);

// Writes EpochOutcomesCsv(outcomes) to `path`.
common::Status WriteEpochOutcomesCsv(const std::string& path,
                                     const std::vector<EpochOutcome>& outcomes);

class EpochRunner {
 public:
  // Builds the planner's catalog/popularity models from the simulator
  // options (uniform catalog, Zipf prior).
  static common::StatusOr<EpochRunner> Create(
      const EpochRunnerOptions& options);

  // Runs all epochs under the MFG-CP planner. A per-content solve failure
  // does not abort the run: the planner's recovery ladder degrades that
  // content (retry / carry-forward / fallback) and the ladder tallies in
  // each outcome's health report say how many contents it served that way.
  common::StatusOr<std::vector<EpochOutcome>> Run();

  // Runs all epochs with a fixed scheme instead of the planner (baseline
  // comparisons under identical epoch structure).
  common::StatusOr<std::vector<EpochOutcome>> RunWithScheme(
      const SchemePolicies& scheme);

  const EpochRunnerOptions& options() const { return options_; }

 private:
  EpochRunner(const EpochRunnerOptions& options,
              core::MfgCpFramework framework)
      : options_(options), framework_(std::move(framework)) {}

  // Weight vector for epoch e (normalized), or the Zipf prior.
  common::StatusOr<std::vector<double>> EpochWeights(std::size_t epoch) const;

  // One epoch's simulation given per-content policies.
  common::StatusOr<EpochOutcome> RunEpoch(std::size_t epoch,
                                          const SchemePolicies& scheme,
                                          double mean_remaining_frac);

  EpochRunnerOptions options_;
  core::MfgCpFramework framework_;
  // Reused across epochs: keeps the planner on its allocation-free path
  // and carries the per-content last-good equilibria the recovery ladder
  // reads after a failure.
  core::EpochPlanBuffer plan_buffer_;
};

}  // namespace mfg::sim

#endif  // MFGCP_SIM_EPOCH_RUNNER_H_
