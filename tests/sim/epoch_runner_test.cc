#include "sim/epoch_runner.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/random_replacement.h"
#include "common/csv.h"
#include "core/fault_injection.h"

namespace mfg::sim {
namespace {

EpochRunnerOptions SmallOptions() {
  EpochRunnerOptions options;
  options.simulator.num_edps = 20;
  options.simulator.num_requesters = 60;
  options.simulator.num_contents = 4;
  options.simulator.num_slots = 30;
  options.simulator.request_rate = 15.0;
  options.simulator.seed = 5;
  options.planner.base_params.grid.num_q_nodes = 31;
  options.planner.base_params.grid.num_time_steps = 40;
  options.planner.base_params.learning.max_iterations = 15;
  options.num_epochs = 3;
  return options;
}

TEST(EpochRunnerTest, CreateValidation) {
  EpochRunnerOptions bad = SmallOptions();
  bad.num_epochs = 0;
  EXPECT_FALSE(EpochRunner::Create(bad).ok());
  bad = SmallOptions();
  bad.observed_requests = 0.0;
  EXPECT_FALSE(EpochRunner::Create(bad).ok());
  bad = SmallOptions();
  bad.initial_fill_frac = 0.0;
  EXPECT_FALSE(EpochRunner::Create(bad).ok());
  bad = SmallOptions();
  bad.epoch_weights = {{0.5, 0.5}};  // Wrong arity (4 contents).
  EXPECT_FALSE(EpochRunner::Create(bad).ok());
  EXPECT_TRUE(EpochRunner::Create(SmallOptions()).ok());
}

TEST(EpochRunnerTest, RunsAllEpochsWithPlanner) {
  auto runner = EpochRunner::Create(SmallOptions()).value();
  auto outcomes = runner.Run();
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ((*outcomes)[e].epoch, e);
    EXPECT_GT((*outcomes)[e].health.active, 0u);
    EXPECT_GT((*outcomes)[e].health.plan_seconds, 0.0);
    EXPECT_GT((*outcomes)[e].result.total.requests_served, 0u);
  }
}

TEST(EpochRunnerTest, CacheLevelCarriesAcrossEpochs) {
  // Epoch 0 starts at the configured fill; once the population caches up
  // in epoch 0, epoch 1 starts from that lower remaining level.
  auto runner = EpochRunner::Create(SmallOptions()).value();
  auto outcomes = runner.Run().value();
  const double end0 =
      outcomes[0].result.per_slot.back().mean_cache_remaining;
  const double start1 =
      outcomes[1].result.per_slot.front().mean_cache_remaining;
  EXPECT_NEAR(start1, end0, 12.0);  // Same level modulo initial spread.
  // And the first epoch actually cached something.
  EXPECT_LT(end0,
            outcomes[0].result.per_slot.front().mean_cache_remaining);
}

TEST(EpochRunnerTest, RunWithSchemeUsesSameEpochStructure) {
  auto runner = EpochRunner::Create(SmallOptions()).value();
  auto scheme = UniformScheme("RR", baselines::MakeRandomReplacement(), 4);
  auto outcomes = runner.RunWithScheme(scheme);
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 3u);
  for (const auto& outcome : *outcomes) {
    EXPECT_EQ(outcome.result.scheme, "RR");
    EXPECT_EQ(outcome.health.plan_seconds, 0.0);  // No planning for baselines.
  }
}

TEST(EpochRunnerTest, EpochWeightsCycleThroughTrace) {
  EpochRunnerOptions options = SmallOptions();
  // Two trace days for three epochs: the third reuses day 0.
  options.epoch_weights = {{1.0, 0.0, 0.0, 0.0}, {0.0, 0.0, 0.0, 1.0}};
  auto runner = EpochRunner::Create(options).value();
  auto outcomes = runner.Run();
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ(outcomes->size(), 3u);
  // With all demand on one content per epoch, only a subset of the
  // catalog is planned.
  for (const auto& outcome : *outcomes) {
    EXPECT_LE(outcome.health.active, 2u);
  }
}

TEST(EpochRunnerTest, HealthyRunReportsNoDegradation) {
  auto runner = EpochRunner::Create(SmallOptions()).value();
  auto outcomes = runner.Run().value();
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.health.retried, 0u);
    EXPECT_EQ(outcome.health.carried_forward, 0u);
    EXPECT_EQ(outcome.health.fallback, 0u);
    // The health report carries the runner's epoch index.
    EXPECT_EQ(outcome.health.epoch, outcome.epoch);
    EXPECT_EQ(outcome.health.DegradedCount(), 0u);
    EXPECT_TRUE(outcome.health.degraded_contents.empty());
  }
}

TEST(EpochRunnerTest, EpochOutcomesCsvHasOneRowPerEpoch) {
  auto runner = EpochRunner::Create(SmallOptions()).value();
  auto outcomes = runner.Run().value();
  const std::string csv = EpochOutcomesCsv(outcomes);
  auto table = common::CsvTable::Parse(csv);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), outcomes.size());
  EXPECT_EQ(table->header(),
            (std::vector<std::string>{
                "epoch", "active", "plan_seconds", "solved", "retried",
                "carried_forward", "fallback", "failed",
                "best_response_solves", "best_response_converged",
                "best_response_nonconverged", "allocations", "eq_probed",
                "eq_exploitability", "eq_exploitability_rel",
                "eq_consistency_residual", "eq_price_min", "eq_price_mean",
                "eq_price_max", "degraded_contents", "mean_utility",
                "hit_ratio"}));
  const auto column = [&table](const char* name) {
    return table->ColumnIndex(name).value();
  };
  for (std::size_t e = 0; e < outcomes.size(); ++e) {
    EXPECT_EQ(table->CellAsInt(e, column("epoch")).value(),
              static_cast<std::int64_t>(e));
    EXPECT_EQ(table->CellAsInt(e, column("retried")).value(), 0);
    EXPECT_EQ(table->CellAsInt(e, column("carried_forward")).value(), 0);
    EXPECT_EQ(table->CellAsInt(e, column("fallback")).value(), 0);
    EXPECT_EQ(table->CellAsInt(e, column("failed")).value(), 0);
    EXPECT_EQ(table->Cell(e, column("degraded_contents")).value(), "");
    EXPECT_GT(table->CellAsDouble(e, column("plan_seconds")).value(), 0.0);
  }
}

#if MFGCP_FAULTS_ENABLED
TEST(EpochRunnerTest, EpochOutcomesCsvReportsDegradedContents) {
  auto runner = EpochRunner::Create(SmallOptions()).value();
  core::faults::FaultPlan plan;
  core::faults::FaultSpec spec;
  spec.site = core::faults::FaultSite::kSolve;
  spec.epoch = 1;
  spec.content = 1;
  spec.fail_attempts = core::faults::FaultSpec::kAlways;
  plan.Add(spec);
  core::faults::ScopedFaultInjection arm(plan);

  auto outcomes = runner.Run().value();
  auto table = common::CsvTable::Parse(EpochOutcomesCsv(outcomes)).value();
  const std::size_t carried = table.ColumnIndex("carried_forward").value();
  const std::size_t degraded = table.ColumnIndex("degraded_contents").value();
  EXPECT_EQ(table.CellAsInt(1, carried).value(), 1);  // One carry-forward.
  EXPECT_EQ(table.Cell(1, degraded).value(), "1");    // ...for content 1.
  EXPECT_EQ(table.CellAsInt(0, carried).value(), 0);
}
#endif  // MFGCP_FAULTS_ENABLED

#if MFGCP_FAULTS_ENABLED
TEST(EpochRunnerTest, DegradedPlansStillTradeInTheMarket) {
  // A permanent solve fault on content 1 in epoch 1: the run must finish
  // all epochs, report the degradation, and the degraded epoch's market
  // still serves requests off the carried-forward policy.
  auto runner = EpochRunner::Create(SmallOptions()).value();
  core::faults::FaultPlan plan;
  core::faults::FaultSpec spec;
  spec.site = core::faults::FaultSite::kSolve;
  spec.epoch = 1;
  spec.content = 1;
  spec.fail_attempts = core::faults::FaultSpec::kAlways;
  plan.Add(spec);
  core::faults::ScopedFaultInjection arm(plan);

  auto outcomes = runner.Run();
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  ASSERT_EQ(outcomes->size(), 3u);
  // Epoch 0 was healthy and seeded the carry-forward history.
  EXPECT_EQ((*outcomes)[0].health.carried_forward, 0u);
  EXPECT_EQ((*outcomes)[1].health.carried_forward, 1u);
  for (const auto& outcome : *outcomes) {
    EXPECT_GT(outcome.result.total.requests_served, 0u);
  }
}
#endif  // MFGCP_FAULTS_ENABLED

TEST(EpochRunnerTest, DeterministicAcrossRuns) {
  auto runner_a = EpochRunner::Create(SmallOptions()).value();
  auto runner_b = EpochRunner::Create(SmallOptions()).value();
  auto a = runner_a.Run().value();
  auto b = runner_b.Run().value();
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_DOUBLE_EQ(a[e].result.total.trading_income,
                     b[e].result.total.trading_income);
  }
}

}  // namespace
}  // namespace mfg::sim
