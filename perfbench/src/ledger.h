#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <vector>

#include "pipeline.h"
#include "spans.h"

// The layer ledger of the traced run. It replays captured epoch
// observations on one thread, layer by layer, through the library's public
// functions:
//   content.popularity   PopularityModel::UpdateInto
//   core.params          MfgCpFramework::ContentParams
//   core.bind            BatchBestResponseLearner::BindLane
//   core.best_response   BatchBestResponseLearner::SolveInto
//   core.hjb_sweep / core.fpk_sweep / core.estimator
//                        HjbBatchSolver / FpkBatchSolver::SolveInto and
//                        MeanFieldEstimator::EstimateInto, driven from the
//                        converged inputs of each replayed block
// and sets their sum against PlanEpochInto at parallelism 1 on the same
// observation. The plan-epoch layer's own work is measured by replaying
// its two costly steps from outside: EpochRuntime::RunEpochBlocks with an
// empty job (dispatch) and the last-good equilibrium copy of every
// converged slot.

namespace perfbench {

struct LedgerResult {
  std::size_t epochs = 0;
  double popularity_us_per_epoch = 0.0;
  double params_us_per_content = 0.0;
  double bind_us_per_content = 0.0;
  double hjb_us_per_lane_sweep = 0.0;
  double fpk_us_per_lane_sweep = 0.0;
  double estimator_us_per_call = 0.0;
  double iterations_per_content = 0.0;
  double converged_share = 0.0;
  double best_response_self_us_per_content = 0.0;
  double plan_epoch_serial_ms = 0.0;
  double plan_epoch_self_share = 0.0;
  double parallel_efficiency = 0.0;
  double publication_us_per_epoch = 0.0;
  double assign_us_per_epoch = 0.0;
  double unattributed_share = 0.0;
};

// `parallel` is the replan pass's planner, `serial` one over the same
// catalog at parallelism 1; `counts` holds one observation per boundary.
// Replays observations until `budget_seconds` pass (at least one, after
// one untimed warm-up).
LedgerResult RunLedger(const Setup& setup,
                       const mfg::sim::MfgPlanReplanHook& parallel,
                       const mfg::sim::MfgPlanReplanHook& serial,
                       const std::vector<std::vector<std::uint64_t>>& counts,
                       double budget_seconds, SpanRecorder& spans, Gate& gate);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
