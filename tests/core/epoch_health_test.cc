#include "core/epoch_health.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fault_injection.h"
#include "core/mfg_cp.h"
#include "epoch_test_util.h"
#include "obs/obs.h"

// EpochHealthReport assembly (core/epoch_health.h + PlanEpochInto's
// `health` out-param): the golden FormatHealthLine rendering, and — under
// a seeded fault plan — that the report's tallies exactly match a recount
// of EpochPlanBuffer::outcomes and the core.best_response.* counter
// deltas, at parallelism 1, 2, and 8.

namespace mfg::core {
namespace {

using ::mfg::core::testing::MakeFramework;
using ::mfg::core::testing::MakeObservation;
using ::testing::HasSubstr;

TEST(EpochHealthTest, FormatHealthLineGolden) {
  EpochHealthReport report;
  report.epoch = 7;
  report.active = 16;
  report.plan_seconds = 0.2451;
  report.solved = 14;
  report.retried = 1;
  report.carried_forward = 1;
  report.fallback = 0;
  report.failed = 0;
  report.best_response_solves = 19;
  report.best_response_converged = 18;
  report.best_response_nonconverged = 1;
  report.allocations = 0;
  report.degraded_contents = {3};
  EXPECT_EQ(FormatHealthLine(report),
            "epoch 7: active=16 wall=0.245s outcomes solved=14 retried=1 "
            "carried_forward=1 fallback=0 failed=0 br solves=19 "
            "converged=18 nonconverged=1 allocs=0 degraded=[3]");
}

TEST(EpochHealthTest, FormatHealthLineOmitsEmptyDegradedList) {
  EpochHealthReport report;
  report.epoch = 0;
  report.active = 4;
  report.plan_seconds = 0.01;
  report.solved = 4;
  const std::string line = FormatHealthLine(report);
  EXPECT_THAT(line, HasSubstr("solved=4"));
  EXPECT_THAT(line, ::testing::Not(HasSubstr("degraded=")));
}

TEST(EpochHealthTest, FormatHealthLineShowsDeadlineMissesOnlyWhenCharged) {
  // The serving runtime's kPlanDeadline degradation (serve/serve_loop.h)
  // charges deadline_misses onto the report; the planner's own path
  // always leaves it 0 and the line must stay byte-identical for those.
  EpochHealthReport report;
  report.epoch = 3;
  report.active = 4;
  report.plan_seconds = 0.01;
  report.solved = 4;
  EXPECT_THAT(FormatHealthLine(report),
              ::testing::Not(HasSubstr("deadline_misses")));
  report.deadline_misses = 1;
  EXPECT_THAT(FormatHealthLine(report), HasSubstr("deadline_misses=1"));
}

TEST(EpochHealthTest, DerivedCountsAndHealthiness) {
  EpochHealthReport report;
  report.solved = 3;
  EXPECT_EQ(report.DegradedCount(), 0u);
  EXPECT_TRUE(report.Healthy());
  report.retried = 1;
  EXPECT_FALSE(report.Healthy());
  report.retried = 0;
  report.carried_forward = 2;
  report.fallback = 1;
  report.failed = 1;
  EXPECT_EQ(report.DegradedCount(), 4u);
  EXPECT_FALSE(report.Healthy());
}

TEST(EpochHealthTest, HealthLoggingToggleRoundTrips) {
  EXPECT_FALSE(EpochHealthLoggingEnabled());
  SetEpochHealthLogging(true);
  EXPECT_TRUE(EpochHealthLoggingEnabled());
  SetEpochHealthLogging(false);
  EXPECT_FALSE(EpochHealthLoggingEnabled());
}

// Recounts buffer.outcomes and checks every report field against it.
void ExpectReportMatchesBuffer(const EpochHealthReport& report,
                               const EpochPlanBuffer& buffer,
                               std::size_t expected_epoch) {
  EXPECT_EQ(report.epoch, expected_epoch);
  EXPECT_EQ(report.active, buffer.num_active);
  EXPECT_GT(report.plan_seconds, 0.0);
  std::size_t solved = 0;
  std::size_t retried = 0;
  std::size_t carried = 0;
  std::size_t fallback = 0;
  std::size_t failed = 0;
  std::vector<content::ContentId> degraded;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    switch (buffer.outcomes[slot]) {
      case SlotOutcome::kSolved:
        ++solved;
        break;
      case SlotOutcome::kRetried:
        ++retried;
        break;
      case SlotOutcome::kCarriedForward:
        ++carried;
        break;
      case SlotOutcome::kFallback:
        ++fallback;
        break;
      case SlotOutcome::kFailed:
        ++failed;
        break;
    }
    if (buffer.outcomes[slot] == SlotOutcome::kCarriedForward ||
        buffer.outcomes[slot] == SlotOutcome::kFallback ||
        buffer.outcomes[slot] == SlotOutcome::kFailed) {
      degraded.push_back(buffer.results[slot].content);
    }
  }
  EXPECT_EQ(report.solved, solved);
  EXPECT_EQ(report.retried, retried);
  EXPECT_EQ(report.carried_forward, carried);
  EXPECT_EQ(report.fallback, fallback);
  EXPECT_EQ(report.failed, failed);
  EXPECT_EQ(report.DegradedCount(), carried + fallback + failed);
  EXPECT_EQ(report.degraded_contents, degraded);
  EXPECT_EQ(report.solved + report.retried + report.carried_forward +
                report.fallback + report.failed,
            buffer.num_active);
}

TEST(EpochHealthTest, HealthyEpochReportMatchesBufferAndCounters) {
  auto framework = MakeFramework(4, 1);
  const EpochObservation obs = MakeObservation(4);
  EpochPlanBuffer buffer;
  EpochHealthReport report;
#if MFGCP_OBS_ENABLED
  obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t solves_before =
      registry.GetCounter("core.best_response.solves").Value();
#endif
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &report).ok());
  ExpectReportMatchesBuffer(report, buffer, 0);
  EXPECT_EQ(report.solved, 4u);
  EXPECT_TRUE(report.degraded_contents.empty());
#if MFGCP_OBS_ENABLED
  // One clean solve per active content, counted via the registry delta.
  EXPECT_EQ(report.best_response_solves, 4u);
  EXPECT_EQ(report.best_response_converged +
                report.best_response_nonconverged,
            4u);
  EXPECT_EQ(registry.GetCounter("core.best_response.solves").Value() -
                solves_before,
            report.best_response_solves);
#else
  EXPECT_EQ(report.best_response_solves, 0u);
#endif
  EXPECT_TRUE(report.Healthy() || report.best_response_nonconverged > 0);

  // The next epoch's report carries the next index.
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &report).ok());
  EXPECT_EQ(report.epoch, 1u);
}

TEST(EpochHealthTest, NullHealthSkipsAssembly) {
  auto framework = MakeFramework(2, 1);
  const EpochObservation obs = MakeObservation(2);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  EXPECT_EQ(buffer.num_active, 2u);
}

#if MFGCP_FAULTS_ENABLED

faults::FaultSpec SpecAt(faults::FaultSite site, std::size_t epoch,
                         std::size_t content, std::size_t fail_attempts) {
  faults::FaultSpec spec;
  spec.site = site;
  spec.epoch = epoch;
  spec.content = content;
  spec.fail_attempts = fail_attempts;
  return spec;
}

// Seeded fault plan: content 1 recovers on retry, content 2 perma-fails
// into the fallback (epoch 0 has no last-good history yet). The report
// must recount buffer.outcomes exactly at every parallelism.
TEST(EpochHealthTest, FaultedEpochReportMatchesBufferAtAnyParallelism) {
  for (const std::size_t parallelism : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "parallelism " << parallelism);
    auto framework = MakeFramework(6, parallelism);
    const EpochObservation obs = MakeObservation(6);
    faults::FaultPlan plan;
    plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 1, 1));
    plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 2,
                    faults::FaultSpec::kAlways));
    faults::ScopedFaultInjection arm(plan);

    EpochPlanBuffer buffer;
    EpochHealthReport report;
    ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &report).ok());
    ExpectReportMatchesBuffer(report, buffer, 0);
    EXPECT_EQ(report.retried, 1u);
    EXPECT_EQ(report.fallback, 1u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.solved, 4u);
    EXPECT_EQ(report.degraded_contents,
              (std::vector<content::ContentId>{2}));
    EXPECT_FALSE(report.Healthy());
    EXPECT_THAT(FormatHealthLine(report), HasSubstr("degraded=[2]"));
  }
}

#endif  // MFGCP_FAULTS_ENABLED

}  // namespace
}  // namespace mfg::core
