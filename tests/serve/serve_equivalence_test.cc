// The serving runtime's determinism contract: with synchronous
// boundaries, ServeLoop's request ledger and final placement are
// bit-identical to a batch gauntlet replay of the same stream — unpaced
// or paced, at any planner parallelism and batch width. This is the
// serve-side extension of GauntletTest.StatisticsAreBitIdenticalAcross-
// PlannerParallelism: the tick scheduler, double-buffered publication,
// and planner thread must be invisible in the statistics.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/request_cache.h"
#include "content/popularity.h"
#include "serve/serve_loop.h"
#include "sim/gauntlet.h"
#include "sim/request_engine.h"
#include "sim/request_stream.h"
#include "serve_test_util.h"

namespace mfg::serve {
namespace {

using serve::testing::SmallServeOptions;
using serve::testing::SmallStreamOptions;

struct BatchReference {
  sim::RequestReplayStats stats;
  std::vector<std::uint32_t> placement;
  common::Status status;
};

// The gauntlet's MFG-CP cell, spelled out: fresh replan hook, Zipf-seeded
// StaticSetCache, one ReplayInto pass. Exposes the final placement the
// GauntletOutcome does not carry.
BatchReference ReplayReference(const sim::RequestStream& stream,
                               const ServeOptions& serve_options,
                               bool expect_ok = true) {
  BatchReference reference;
  const std::size_t k = serve_options.engine.num_contents;
  auto hook = sim::MfgPlanReplanHook::Create(
      serve_options.plan, k, serve_options.engine.content_size_mb,
      serve_options.zipf_iota);
  EXPECT_TRUE(hook.ok()) << hook.status();
  auto popularity =
      content::PopularityModel::CreateZipf(k, serve_options.zipf_iota);
  EXPECT_TRUE(popularity.ok()) << popularity.status();

  baselines::StaticSetCache cache("MFG-CP");
  EXPECT_TRUE(cache
                  .Reset(k, serve_options.engine.cache_capacity,
                         popularity.value().prior())
                  .ok());
  const sim::RequestEngine engine(serve_options.engine);
  sim::RequestEngine::Workspace workspace;
  auto status = engine.ReplayInto(stream, cache, hook.value().get(),
                                  workspace, reference.stats);
  if (expect_ok) {
    EXPECT_TRUE(status.ok()) << status;
  }
  reference.status = status;
  reference.placement.assign(cache.placement().begin(),
                             cache.placement().end());
  return reference;
}

TEST(ServeLoopEquivalenceTest, UnpacedServeMatchesBatchReplayBitForBit) {
  auto stream = sim::GenerateRequestStream(SmallStreamOptions());
  ASSERT_TRUE(stream.ok()) << stream.status();

  const BatchReference reference =
      ReplayReference(stream.value(), SmallServeOptions());
  ASSERT_GT(reference.stats.replans, 0u);

  // Unpaced, then paced at 500x with 10 ms and 1 ms ticks: a paced tick
  // boundary falls between arrivals, so boundaries fire at the tick
  // instead of before a request — the ledger must not notice.
  struct Clock {
    double timescale;
    double tick_ms;
  };
  for (const Clock clock :
       {Clock{kTimescaleInfinite, 10.0}, Clock{500.0, 10.0},
        Clock{500.0, 1.0}}) {
    for (std::size_t parallelism : {1u, 2u, 8u}) {
      for (std::size_t batch_width : {1u, 8u}) {
        ServeOptions options = SmallServeOptions();
        options.plan.planner.parallelism = parallelism;
        options.plan.planner.batch_width = batch_width;
        options.clock.timescale = clock.timescale;
        options.clock.tick_ms = clock.tick_ms;
        auto loop = ServeLoop::Create(options);
        ASSERT_TRUE(loop.ok()) << loop.status();

        ServeStats stats;
        auto status = loop.value()->Run(stream.value(), stats);
        ASSERT_TRUE(status.ok()) << status;

        SCOPED_TRACE(::testing::Message()
                     << "timescale " << clock.timescale << " tick_ms "
                     << clock.tick_ms << " parallelism " << parallelism
                     << " batch " << batch_width);
        EXPECT_EQ(stats.requests.requests, reference.stats.requests);
        EXPECT_EQ(stats.requests.hits, reference.stats.hits);
        EXPECT_EQ(stats.requests.misses, reference.stats.misses);
        EXPECT_EQ(stats.requests.replans, reference.stats.replans);
        EXPECT_EQ(stats.requests.replan_faults, reference.stats.replan_faults);
        // Bit-identical accumulations, not just close.
        EXPECT_EQ(stats.requests.total_delay, reference.stats.total_delay);
        EXPECT_EQ(stats.requests.backhaul_mb, reference.stats.backhaul_mb);
        EXPECT_EQ(stats.requests.horizon, reference.stats.horizon);

        // The placement left serving is the batch replay's final placement,
        // entry for entry (AssignTopByScore orders deterministically).
        auto placement = loop.value()->placement();
        ASSERT_EQ(placement.size(), reference.placement.size());
        for (std::size_t i = 0; i < placement.size(); ++i) {
          EXPECT_EQ(placement[i], reference.placement[i]) << "slot " << i;
        }

        // Every boundary planned and published, synchronously and on time.
        EXPECT_EQ(stats.plan_rounds, stats.requests.replans);
        EXPECT_EQ(stats.publications, stats.plan_rounds);
        EXPECT_EQ(stats.rows.size(), stats.publications);
        EXPECT_EQ(stats.deadline_misses, 0u);
        EXPECT_EQ(stats.skipped_plan_rounds, 0u);
        EXPECT_EQ(stats.failed_epochs, 0u);
      }
    }
  }
}

TEST(ServeLoopEquivalenceTest, MatchesTheGauntletCellItself) {
  // Belt and braces: the hand-rolled reference above is the gauntlet's
  // MFG-CP cell; make sure the gauntlet agrees, so the serve contract is
  // anchored to RunGauntlet and not to this test's private replay.
  auto stream = sim::GenerateRequestStream(SmallStreamOptions());
  ASSERT_TRUE(stream.ok()) << stream.status();

  sim::GauntletOptions gauntlet;
  gauntlet.stream = SmallStreamOptions();
  gauntlet.engine = SmallServeOptions().engine;
  gauntlet.capacities = {SmallServeOptions().engine.cache_capacity};
  gauntlet.schemes = {sim::GauntletScheme::kMfgPlan};
  gauntlet.plan = SmallServeOptions().plan;
  auto outcomes = sim::RunGauntlet(gauntlet);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  ASSERT_EQ(outcomes->size(), 1u);

  auto loop = ServeLoop::Create(SmallServeOptions());
  ASSERT_TRUE(loop.ok()) << loop.status();
  ServeStats stats;
  ASSERT_TRUE(loop.value()->Run(stream.value(), stats).ok());

  const sim::RequestReplayStats& cell = (*outcomes)[0].stats;
  EXPECT_EQ(stats.requests.hits, cell.hits);
  EXPECT_EQ(stats.requests.misses, cell.misses);
  EXPECT_EQ(stats.requests.replans, cell.replans);
  EXPECT_EQ(stats.requests.total_delay, cell.total_delay);
  EXPECT_EQ(stats.requests.backhaul_mb, cell.backhaul_mb);
}

TEST(ServeLoopEquivalenceTest, RerunningTheSameLoopStaysDeterministic) {
  // A long-lived daemon replans across many streams; the ledger of a
  // repeat Run over the same stream must reproduce the first (planner
  // carry-forward state persists, but with identical observations the
  // plans are identical).
  auto stream = sim::GenerateRequestStream(SmallStreamOptions());
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto loop = ServeLoop::Create(SmallServeOptions());
  ASSERT_TRUE(loop.ok()) << loop.status();

  ServeStats first;
  ASSERT_TRUE(loop.value()->Run(stream.value(), first).ok());
  ServeStats second;
  ASSERT_TRUE(loop.value()->Run(stream.value(), second).ok());
  EXPECT_EQ(second.requests.hits, first.requests.hits);
  EXPECT_EQ(second.requests.total_delay, first.requests.total_delay);
  EXPECT_EQ(second.publications, first.publications);
}

TEST(ServeLoopEquivalenceTest, BadContentIdStopsBothDriversAtTheSameRequest) {
  // One rule for a rejected request in either driver: InvalidArgument,
  // with the ledger of every request before it.
  auto clean = sim::GenerateRequestStream(SmallStreamOptions());
  ASSERT_TRUE(clean.ok()) << clean.status();
  sim::RequestStream bad = clean.value();
  const std::size_t rejected = bad.size() / 2;
  bad.content[rejected] = 99;

  const BatchReference reference =
      ReplayReference(bad, SmallServeOptions(), /*expect_ok=*/false);
  EXPECT_EQ(reference.status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(reference.stats.requests, rejected);
  EXPECT_GT(reference.stats.replans, 0u);

  for (double deadline_ms : {0.0, 60000.0}) {
    SCOPED_TRACE(::testing::Message() << "plan_deadline_ms " << deadline_ms);
    ServeOptions options = SmallServeOptions();
    options.plan_deadline_ms = deadline_ms;
    auto loop = ServeLoop::Create(options);
    ASSERT_TRUE(loop.ok()) << loop.status();

    ServeStats stats;
    auto status = loop.value()->Run(bad, stats);
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
    EXPECT_EQ(stats.requests.requests, rejected);
    EXPECT_EQ(stats.requests.replans, reference.stats.replans);
    if (deadline_ms == 0.0) {
      // Synchronous plans publish where the replay's do: the partial
      // ledgers agree to the bit.
      EXPECT_EQ(stats.requests.hits, reference.stats.hits);
      EXPECT_EQ(stats.requests.misses, reference.stats.misses);
      EXPECT_EQ(stats.requests.replan_faults, reference.stats.replan_faults);
      EXPECT_EQ(stats.requests.total_delay, reference.stats.total_delay);
      EXPECT_EQ(stats.requests.backhaul_mb, reference.stats.backhaul_mb);
      EXPECT_EQ(stats.requests.horizon, reference.stats.horizon);
    }

    // The loop survives the rejection: the next clean stream is served to
    // completion.
    ServeStats after;
    ASSERT_TRUE(loop.value()->Run(clean.value(), after).ok());
    EXPECT_EQ(after.requests.requests, clean->size());
    EXPECT_EQ(after.requests.hits + after.requests.misses, clean->size());
    EXPECT_GT(after.publications, 0u);
  }
}

}  // namespace
}  // namespace mfg::serve
