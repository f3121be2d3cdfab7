// Chaos soak: a many-epoch ServeLoop run under a seeded high-rate fault
// plan covering every injectable site — the solver ladder sites plus the
// serving runtime's own kReplan and kPlanDeadline seams. The runtime must
// absorb all of it: zero failed epochs (the recovery ladder ends in
// fallback, never failure, for kNumericalError faults), monotone
// publication sequence, and ladder tallies that recount identically from
// the live plan buffer (via the on_plan callback) and from the published
// rows.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault_injection.h"
#include "core/mfg_cp.h"
#include "serve/serve_loop.h"
#include "sim/request_stream.h"

namespace mfg::serve {
namespace {

struct PlanRecount {
  std::size_t epoch = 0;
  std::size_t active = 0;
  std::size_t solved = 0;
  std::size_t retried = 0;
  std::size_t carried_forward = 0;
  std::size_t fallback = 0;
  std::size_t failed = 0;
  // The health report's own tallies, captured alongside.
  std::size_t health_solved = 0;
  std::size_t health_retried = 0;
  std::size_t health_carried = 0;
  std::size_t health_fallback = 0;
  std::size_t health_failed = 0;
};

TEST(ServeLoopChaosTest, SoaksManyFaultedEpochsWithoutFailing) {
  // ~25 epochs: 24k requests at rate 240 (horizon ~100) on a 4.0 period.
  sim::RequestStreamOptions stream_options;
  stream_options.num_contents = 8;
  stream_options.num_requests = 24000;
  stream_options.arrival_rate = 240.0;
  stream_options.seed = 77;
  auto stream = sim::GenerateRequestStream(stream_options);
  ASSERT_TRUE(stream.ok()) << stream.status();

  ServeOptions options;
  options.engine.num_contents = 8;
  options.engine.cache_capacity = 3;
  options.engine.epoch_period = 4.0;
  options.plan.planner.base_params.grid.num_q_nodes = 41;
  options.plan.planner.base_params.grid.num_time_steps = 50;
  options.plan.planner.base_params.learning.max_iterations = 12;
  options.plan.planner.parallelism = 4;
  options.plan.planner.batch_width = 4;
  options.clock.timescale = kTimescaleInfinite;

  // Recount ladder outcomes straight from the plan buffer on every round;
  // synchronous boundaries mean the serve thread is blocked while this
  // runs, so plain accumulation is safe.
  std::vector<PlanRecount> recounts;
  options.on_plan = [&recounts](const core::EpochPlanBuffer& buffer,
                                const core::EpochHealthReport& health) {
    PlanRecount recount;
    recount.epoch = health.epoch;
    for (std::size_t i = 0; i < buffer.active.size(); ++i) {
      if (!buffer.active[i]) continue;
      ++recount.active;
      switch (buffer.outcomes[i]) {
        case core::SlotOutcome::kSolved: ++recount.solved; break;
        case core::SlotOutcome::kRetried: ++recount.retried; break;
        case core::SlotOutcome::kCarriedForward:
          ++recount.carried_forward;
          break;
        case core::SlotOutcome::kFallback: ++recount.fallback; break;
        case core::SlotOutcome::kFailed: ++recount.failed; break;
      }
    }
    recount.health_solved = health.solved;
    recount.health_retried = health.retried;
    recount.health_carried = health.carried_forward;
    recount.health_fallback = health.fallback;
    recount.health_failed = health.failed;
    recounts.push_back(recount);
  };

  auto loop = ServeLoop::Create(options);
  ASSERT_TRUE(loop.ok()) << loop.status();

#if MFGCP_FAULTS_ENABLED
  core::faults::FaultPlan::SeedOptions seed;
  seed.seed = 0xC4405;
  seed.num_epochs = 30;
  seed.num_contents = 8;
  seed.fault_rate = 0.3;
  seed.permanent_fraction = 0.3;
  seed.sites = {
      core::faults::FaultSite::kParamsBuild,
      core::faults::FaultSite::kRebind,
      core::faults::FaultSite::kSolve,
      core::faults::FaultSite::kHjbStep,
      core::faults::FaultSite::kFpkStep,
      core::faults::FaultSite::kNonConvergence,
      core::faults::FaultSite::kReplan,
      core::faults::FaultSite::kPlanDeadline,
  };
  const core::faults::FaultPlan plan = core::faults::FaultPlan::FromSeed(seed);
  core::faults::ScopedFaultInjection arm(plan);
#endif  // MFGCP_FAULTS_ENABLED

  ServeStats stats;
  auto status = loop.value()->Run(stream.value(), stats);
  ASSERT_TRUE(status.ok()) << status;

  // The soak actually soaked: a long boundary schedule, fully served.
  EXPECT_GE(stats.requests.replans, 20u);
  EXPECT_EQ(stats.requests.requests, 24000u);
  EXPECT_EQ(stats.requests.hits + stats.requests.misses,
            stats.requests.requests);

  // Nothing failed, ever: the ladder degraded faulted slots, the serve
  // loop degraded faulted boundaries, no epoch died.
  EXPECT_EQ(stats.failed_epochs, 0u);
  for (const ServeEpochRow& row : stats.rows) {
    EXPECT_EQ(row.failed, 0u) << "plan epoch " << row.epoch;
  }

  // Monotone publication sequence; nondecreasing tick and sim-time; every
  // row's tallies account for its active set.
  std::uint64_t deferred_rows = 0;
  for (std::size_t i = 0; i < stats.rows.size(); ++i) {
    const ServeEpochRow& row = stats.rows[i];
    EXPECT_EQ(row.seq, i);
    EXPECT_EQ(row.solved + row.retried + row.carried_forward + row.fallback +
                  row.failed,
              row.active)
        << "seq " << i;
    EXPECT_GE(row.epoch_published, row.epoch);
    if (i > 0) {
      EXPECT_GE(row.tick, stats.rows[i - 1].tick);
      EXPECT_GE(row.sim_time, stats.rows[i - 1].sim_time);
      EXPECT_GT(row.epoch, stats.rows[i - 1].epoch);
    }
    deferred_rows += row.deadline_misses;
  }
  // Every deadline miss is a published deferred row; a plan still pending
  // when the stream ended publishes at the tail.
  EXPECT_GE(stats.deadline_misses, deferred_rows);
  EXPECT_EQ(stats.deadline_misses, deferred_rows);

  // The plan-buffer recount and the health report tell the same story,
  // round for round — and rounds line up one-to-one with dispatches.
  EXPECT_EQ(recounts.size(), stats.plan_rounds);
  for (const PlanRecount& recount : recounts) {
    EXPECT_EQ(recount.solved, recount.health_solved)
        << "epoch " << recount.epoch;
    EXPECT_EQ(recount.retried, recount.health_retried);
    EXPECT_EQ(recount.carried_forward, recount.health_carried);
    EXPECT_EQ(recount.fallback, recount.health_fallback);
    EXPECT_EQ(recount.failed, recount.health_failed);
    EXPECT_EQ(recount.health_failed, 0u);
  }

#if MFGCP_FAULTS_ENABLED
  // The chaos actually bit: the seeded plan fires at this rate with near
  // certainty across 25+ epochs; a silent no-fault soak would be a
  // regression in the seams, not a pass.
  EXPECT_GT(stats.requests.replan_faults + stats.deadline_misses, 0u);
  // Accounting stays closed under chaos: every boundary either planned,
  // was skipped, or degraded.
  EXPECT_EQ(stats.plan_rounds + stats.skipped_plan_rounds +
                stats.requests.replan_faults,
            stats.requests.replans);
#else
  EXPECT_EQ(stats.requests.replan_faults, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
#endif  // MFGCP_FAULTS_ENABLED
}

}  // namespace
}  // namespace mfg::serve
