#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "epoch_test_util.h"
#include "core/equilibrium_metrics.h"
#include "core/fault_injection.h"
#include "core/mfg_cp.h"
#include "obs/metrics.h"

// The per-epoch equilibrium-quality probe (MfgCpOptions::eq_probe): the
// health report's eq fields must match what ComputeExploitability /
// ComputeConsistencyResidual return directly on the planned slots, the
// probe must stay off by default, and (with the observability layer in)
// the eq.* gauges must carry the same values.

namespace mfg::core {
namespace {

TEST(EquilibriumProbeTest, DisabledByDefaultLeavesFieldsZero) {
  MfgCpFramework framework = testing::MakeFramework(2, 1);
  const EpochObservation obs = testing::MakeObservation(2);
  EpochPlanBuffer buffer;
  EpochHealthReport health;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &health).ok());
  EXPECT_EQ(health.eq_probed, 0u);
  EXPECT_EQ(health.eq_exploitability, 0.0);
  EXPECT_EQ(health.eq_exploitability_rel, 0.0);
  EXPECT_EQ(health.eq_consistency_residual, 0.0);
  EXPECT_EQ(health.eq_price_mean, 0.0);
  // The health line carries no eq block when the probe is off.
  EXPECT_THAT(FormatHealthLine(health),
              ::testing::Not(::testing::HasSubstr(" eq probed=")));
}

TEST(EquilibriumProbeTest, ProbeMatchesDirectComputation) {
  MfgCpOptions options = testing::FastOptions(1);
  options.eq_probe.enabled = true;
  options.eq_probe.max_contents = 0;  // Probe every active slot.
  MfgCpFramework framework = testing::MakeFramework(3, 1, &options);
  const EpochObservation obs = testing::MakeObservation(3);
  EpochPlanBuffer buffer;
  EpochHealthReport health;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &health).ok());
  ASSERT_EQ(health.eq_probed, buffer.num_active);
  ASSERT_GT(buffer.num_active, 0u);

  double max_gap = 0.0;
  double max_rel = 0.0;
  double max_cons = 0.0;
  double price_min = 0.0;
  double price_max = 0.0;
  double price_sum = 0.0;
  std::size_t price_samples = 0;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    const EpochContentResult& result = buffer.results[slot];
    auto exploitability =
        ComputeExploitability(result.params, result.equilibrium);
    ASSERT_TRUE(exploitability.ok()) << exploitability.status();
    auto consistency =
        ComputeConsistencyResidual(result.params, result.equilibrium);
    ASSERT_TRUE(consistency.ok()) << consistency.status();
    max_gap = std::max(max_gap, exploitability->gap);
    max_rel = std::max(max_rel, exploitability->RelativeGap());
    max_cons = std::max(max_cons, *consistency);
    for (const MeanFieldQuantities& mf : result.equilibrium.mean_field) {
      if (price_samples == 0) {
        price_min = mf.price;
        price_max = mf.price;
      } else {
        price_min = std::min(price_min, mf.price);
        price_max = std::max(price_max, mf.price);
      }
      price_sum += mf.price;
      ++price_samples;
    }
  }
  // The probe runs the exact same deterministic computations, so the
  // worst-case aggregates match bitwise.
  EXPECT_EQ(health.eq_exploitability, max_gap);
  EXPECT_EQ(health.eq_exploitability_rel, max_rel);
  EXPECT_EQ(health.eq_consistency_residual, max_cons);
  EXPECT_EQ(health.eq_price_min, price_min);
  EXPECT_EQ(health.eq_price_max, price_max);
  ASSERT_GT(price_samples, 0u);
  EXPECT_EQ(health.eq_price_mean,
            price_sum / static_cast<double>(price_samples));
  EXPECT_TRUE(std::isfinite(health.eq_exploitability));
  EXPECT_TRUE(std::isfinite(health.eq_consistency_residual));
  EXPECT_THAT(FormatHealthLine(health),
              ::testing::HasSubstr(" eq probed=3"));

#if MFGCP_OBS_ENABLED
  obs::Registry& registry = obs::Registry::Global();
  EXPECT_EQ(registry.GetGauge("eq.probed_contents").Value(),
            static_cast<double>(health.eq_probed));
  EXPECT_EQ(registry.GetGauge("eq.exploitability").Value(),
            health.eq_exploitability);
  EXPECT_EQ(registry.GetGauge("eq.exploitability_rel").Value(),
            health.eq_exploitability_rel);
  EXPECT_EQ(registry.GetGauge("eq.consistency_residual").Value(),
            health.eq_consistency_residual);
  EXPECT_EQ(registry.GetGauge("eq.price_mean").Value(),
            health.eq_price_mean);
#endif
}

TEST(EquilibriumProbeTest, WindowRotatesAndRespectsMaxContents) {
  MfgCpOptions options = testing::FastOptions(1);
  options.eq_probe.enabled = true;
  options.eq_probe.max_contents = 1;
  MfgCpFramework framework = testing::MakeFramework(3, 1, &options);
  const EpochObservation obs = testing::MakeObservation(3);
  EpochPlanBuffer buffer;
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    EpochHealthReport health;
    ASSERT_TRUE(framework.PlanEpochInto(obs, buffer, &health).ok());
    EXPECT_EQ(health.eq_probed, 1u);
    // Price stats still cover every active slot.
    EXPECT_GT(health.eq_price_max, 0.0);
  }
}

TEST(EquilibriumProbeTest, ConsistencyResidualSeparatesGoodFromCorrupted) {
  MfgCpOptions options = testing::FastOptions(1);
  options.eq_probe.enabled = true;
  MfgCpFramework framework = testing::MakeFramework(2, 1, &options);
  const EpochObservation obs = testing::MakeObservation(2);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_GT(buffer.num_active, 0u);
  const EpochContentResult& result = buffer.results[0];

  auto good =
      ComputeConsistencyResidual(result.params, result.equilibrium);
  ASSERT_TRUE(good.ok()) << good.status();

  // A density trajectory that never saw the shipped policy (the carry-
  // forward / fallback situation) must show a clearly larger fixed-point
  // gap than the converged candidate.
  Equilibrium corrupted = result.equilibrium;
  corrupted.hjb.policy.Assign(result.params.grid.num_time_steps + 1,
                              result.params.grid.num_q_nodes, 0.0);
  auto bad = ComputeConsistencyResidual(result.params, corrupted);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_GT(*bad, *good);
}

#if MFGCP_FAULTS_ENABLED

// Expects the health report's price stats to be those of the slots whose
// equilibrium this epoch produced: neither a failed slot (its equilibrium
// was never written this epoch) nor a fallback (placeholder mean field).
void ExpectPriceStatsSkipDegradedSlots(const EpochPlanBuffer& buffer,
                                       const EpochHealthReport& health) {
  bool skipped = false;
  double price_min = 0.0;
  double price_max = 0.0;
  double price_sum = 0.0;
  std::size_t price_samples = 0;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    if (buffer.outcomes[slot] == SlotOutcome::kFailed ||
        buffer.outcomes[slot] == SlotOutcome::kFallback) {
      skipped = true;
      continue;
    }
    for (const MeanFieldQuantities& mf :
         buffer.results[slot].equilibrium.mean_field) {
      price_min = price_samples == 0 ? mf.price : std::min(price_min, mf.price);
      price_max = price_samples == 0 ? mf.price : std::max(price_max, mf.price);
      price_sum += mf.price;
      ++price_samples;
    }
  }
  EXPECT_TRUE(skipped);
  ASSERT_GT(price_samples, 0u);
  EXPECT_EQ(health.eq_price_min, price_min);
  EXPECT_EQ(health.eq_price_max, price_max);
  EXPECT_EQ(health.eq_price_mean,
            price_sum / static_cast<double>(price_samples));
}

#endif  // MFGCP_FAULTS_ENABLED

TEST(EquilibriumProbeTest, PriceStatsSkipFallbackAndFailedSlots) {
#if !MFGCP_FAULTS_ENABLED
  GTEST_SKIP() << "built with MFGCP_FAULTS=OFF; forcing degraded slots "
                  "needs the injection seam";
#else
  MfgCpOptions options = testing::FastOptions(1);
  options.eq_probe.enabled = true;
  MfgCpFramework framework = testing::MakeFramework(4, 1, &options);
  EpochPlanBuffer buffer;

  // Epoch 0: content 0 perma-fails with no history, so its slot is the
  // static fallback and its mean field is all-zero placeholders.
  faults::FaultPlan plan;
  faults::FaultSpec fallback;
  fallback.site = faults::FaultSite::kSolve;
  fallback.epoch = 0;
  fallback.content = 0;
  plan.Add(fallback);
  // Epoch 1 (a changed observation): content 2 hits a configuration
  // error, so its slot fails and still holds epoch 0's equilibrium.
  faults::FaultSpec failed = fallback;
  failed.epoch = 1;
  failed.content = 2;
  failed.code = common::StatusCode::kInvalidArgument;
  plan.Add(failed);
  faults::ScopedFaultInjection arm(plan);

  EpochHealthReport health;
  ASSERT_TRUE(
      framework.PlanEpochInto(testing::MakeObservation(4), buffer, &health)
          .ok());
  ASSERT_EQ(health.fallback, 1u);
  ExpectPriceStatsSkipDegradedSlots(buffer, health);

  EpochObservation changed = testing::MakeObservation(4);
  changed.request_counts.assign(4, 25);
  changed.mean_timeliness.assign(4, 3.5);
  EXPECT_FALSE(framework.PlanEpochInto(changed, buffer, &health).ok());
  ASSERT_EQ(health.failed, 1u);
  ExpectPriceStatsSkipDegradedSlots(buffer, health);
#endif  // MFGCP_FAULTS_ENABLED
}

}  // namespace
}  // namespace mfg::core
