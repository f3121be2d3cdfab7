// Asserts the allocs_per_replay=0 contract of the request engine: this
// binary links mfgcp_obs_alloc_hooks, so every operator new bumps the
// probe; a warmed ReplayInto must not bump it at all — for every request-
// level cache policy, and for the replanning replay whose boundaries run
// MfgCpFramework::PlanEpochInto (whose own workers must also stay at
// zero). The request-replay mirror of core/epoch_alloc_test.cc.

#include <gtest/gtest.h>

#include <cstddef>

#include "baselines/request_cache.h"
#include "obs/alloc_probe.h"
#include "sim/gauntlet.h"
#include "sim/request_engine.h"
#include "sim/request_stream.h"

namespace mfg::sim {
namespace {

constexpr std::size_t kContents = 16;
constexpr std::size_t kCapacity = 4;

RequestStream MakeStream() {
  RequestStreamOptions options;
  options.num_contents = kContents;
  options.num_requests = 50000;
  options.arrival_rate = 500.0;
  options.seed = 31;
  auto stream = GenerateRequestStream(options);
  EXPECT_TRUE(stream.ok()) << stream.status();
  return std::move(stream).value();
}

void ExpectWarmedReplayAllocationFree(baselines::RequestCachePolicy& policy) {
  const RequestStream stream = MakeStream();
  RequestEngineOptions options;
  options.num_contents = kContents;
  options.cache_capacity = kCapacity;
  const RequestEngine engine(options);
  RequestEngine::Workspace workspace;
  RequestReplayStats stats;
  ASSERT_TRUE(policy.Reset(kContents, kCapacity, {}).ok());
  // Warmup replay sizes the workspace; the policy sized itself at Reset.
  ASSERT_TRUE(
      engine.ReplayInto(stream, policy, nullptr, workspace, stats).ok());

  const std::size_t before = obs::AllocationCount();
  ASSERT_TRUE(
      engine.ReplayInto(stream, policy, nullptr, workspace, stats).ok());
  const std::size_t after = obs::AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << policy.name() << ": warmed replay allocated";
}

TEST(RequestAllocTest, LruReplayIsAllocationFree) {
  baselines::LruCache policy;
  ExpectWarmedReplayAllocationFree(policy);
}

TEST(RequestAllocTest, LfuReplayIsAllocationFree) {
  baselines::LfuCache policy;
  ExpectWarmedReplayAllocationFree(policy);
}

TEST(RequestAllocTest, PopularityGreedyReplayIsAllocationFree) {
  baselines::PopularityGreedyCache policy;
  ExpectWarmedReplayAllocationFree(policy);
}

TEST(RequestAllocTest, StaticSetReplayIsAllocationFree) {
  baselines::StaticSetCache policy;
  ExpectWarmedReplayAllocationFree(policy);
}

TEST(RequestAllocTest, ResetWithSameShapeIsAllocationFree) {
  baselines::LruCache lru;
  baselines::LfuCache lfu;
  baselines::PopularityGreedyCache greedy;
  baselines::StaticSetCache fixed;
  baselines::RequestCachePolicy* const policies[] = {&lru, &lfu, &greedy,
                                                     &fixed};
  for (baselines::RequestCachePolicy* policy : policies) {
    ASSERT_TRUE(policy->Reset(kContents, kCapacity, {}).ok());
    const std::size_t before = obs::AllocationCount();
    ASSERT_TRUE(policy->Reset(kContents, kCapacity, {}).ok());
    const std::size_t after = obs::AllocationCount();
    EXPECT_EQ(after - before, 0u) << policy->name() << ": re-Reset allocated";
  }
}

// The replanning replay: boundaries run the planner's zero-allocation
// epoch path, the hook's observation/score scratch reuses its capacity,
// and AssignTopByScore works in place. Worker-thread allocations are
// checked through the epoch runtime's per-worker probes.
void ExpectWarmedReplanReplayAllocationFree(std::size_t parallelism) {
  SCOPED_TRACE(::testing::Message() << "planner parallelism " << parallelism);
  const RequestStream stream = MakeStream();

  // The FastOptions configuration of tests/core/epoch_test_util.h: solves
  // converge cleanly, so no retry rung of the recovery ladder runs (the
  // ladder's WARN logging is allowed to allocate; the clean path is not).
  MfgPlanReplanHook::Options hook_options;
  hook_options.planner.base_params.grid.num_q_nodes = 41;
  hook_options.planner.base_params.grid.num_time_steps = 50;
  hook_options.planner.base_params.learning.max_iterations = 20;
  hook_options.planner.parallelism = parallelism;
  auto hook = MfgPlanReplanHook::Create(hook_options, kContents, 100.0, 0.8);
  ASSERT_TRUE(hook.ok()) << hook.status();

  RequestEngineOptions options;
  options.num_contents = kContents;
  options.cache_capacity = kCapacity;
  options.epoch_period = stream.arrival_time.back() / 8.0;
  const RequestEngine engine(options);

  baselines::StaticSetCache policy("MFG-CP");
  ASSERT_TRUE(policy.Reset(kContents, kCapacity, {}).ok());
  RequestEngine::Workspace workspace;
  RequestReplayStats stats;
  // Two warmup replays, mirroring epoch_alloc_test: the first sizes every
  // buffer (planner workspaces, plan buffer, hook scratch), the second
  // confirms the high-water marks.
  ASSERT_TRUE(
      engine.ReplayInto(stream, policy, hook->get(), workspace, stats).ok());
  ASSERT_TRUE(
      engine.ReplayInto(stream, policy, hook->get(), workspace, stats).ok());

  const std::size_t before = obs::AllocationCount();
  ASSERT_TRUE(
      engine.ReplayInto(stream, policy, hook->get(), workspace, stats).ok());
  const std::size_t after = obs::AllocationCount();
  EXPECT_EQ(after - before, 0u) << "warmed replanning replay allocated";
  EXPECT_GT(stats.replans, 0u);
}

// At planner width 1 every boundary solves inline on the replay thread;
// at width 2 it runs on the pool.
TEST(RequestAllocTest, MfgReplanReplayIsAllocationFree) {
  ExpectWarmedReplanReplayAllocationFree(1);
  ExpectWarmedReplanReplayAllocationFree(2);
}

}  // namespace
}  // namespace mfg::sim
