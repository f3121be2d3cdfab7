#include "core/epoch_runtime.h"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/mfg_cp.h"
#include "epoch_test_util.h"

namespace mfg::core {
namespace {

using ::mfg::core::testing::ExpectEquilibriumIdentical;
using ::mfg::core::testing::MakeFramework;
using ::mfg::core::testing::MakeObservation;
using ::testing::HasSubstr;

// ---------------------------------------------------------------------------
// EpochRuntime scheduling, directly against a counting job.

struct RecordCtx {
  std::vector<std::atomic<int>>* hits;
  std::atomic<std::size_t>* max_worker;
};

void RecordSlots(void* ctx, std::size_t worker, std::size_t begin,
                 std::size_t end) {
  RecordCtx& r = *static_cast<RecordCtx*>(ctx);
  for (std::size_t slot = begin; slot < end; ++slot) {
    (*r.hits)[slot].fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t seen = r.max_worker->load(std::memory_order_relaxed);
  while (worker > seen &&
         !r.max_worker->compare_exchange_weak(seen, worker)) {
  }
}

void RunRecordedEpoch(EpochRuntime& runtime, std::size_t count,
                      std::vector<std::atomic<int>>& hits,
                      std::atomic<std::size_t>& max_worker) {
  RecordCtx ctx{&hits, &max_worker};
  runtime.RunEpochBlocks(count, 1, &RecordSlots, &ctx);
}

TEST(EpochRuntimeTest, EverySlotSolvedExactlyOnce) {
  for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    EpochRuntime runtime(parallelism);
    constexpr std::size_t kSlots = 13;  // Not a multiple of the pool size.
    std::vector<std::atomic<int>> hits(kSlots);
    std::atomic<std::size_t> max_worker{0};
    RunRecordedEpoch(runtime, kSlots, hits, max_worker);
    for (std::size_t s = 0; s < kSlots; ++s) {
      EXPECT_EQ(hits[s].load(), 1) << "slot " << s;
    }
    // Second (work-stealing) epoch covers every slot again.
    RunRecordedEpoch(runtime, kSlots, hits, max_worker);
    for (std::size_t s = 0; s < kSlots; ++s) {
      EXPECT_EQ(hits[s].load(), 2) << "slot " << s;
    }
    EXPECT_LT(max_worker.load(), runtime.num_workers());
  }
}

TEST(EpochRuntimeTest, FirstEpochWarmsEveryWorkerRoundRobin) {
  EpochRuntime runtime(4);
  ASSERT_EQ(runtime.num_workers(), 4u);
  constexpr std::size_t kSlots = 8;
  std::vector<std::atomic<int>> hits(kSlots);
  std::atomic<std::size_t> max_worker{0};
  RunRecordedEpoch(runtime, kSlots, hits, max_worker);
  // The warmup epoch partitions statically: slot i -> worker i mod 4, so
  // every worker solves exactly 2 of the 8 slots and comes out warmed.
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    EXPECT_TRUE(runtime.worker(w).warmed) << "worker " << w;
    EXPECT_EQ(runtime.worker(w).contents_solved, 2u) << "worker " << w;
  }
  // Steady-state epochs steal, but the per-epoch totals still add up.
  RunRecordedEpoch(runtime, kSlots, hits, max_worker);
  std::size_t total = 0;
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    total += runtime.worker(w).contents_solved;
  }
  EXPECT_EQ(total, kSlots);
}

TEST(EpochRuntimeTest, EmptyEpochIsANoOp) {
  EpochRuntime runtime(2);
  std::vector<std::atomic<int>> hits(1);
  std::atomic<std::size_t> max_worker{0};
  RunRecordedEpoch(runtime, 0, hits, max_worker);
  EXPECT_EQ(hits[0].load(), 0);
  EXPECT_FALSE(runtime.worker(0).warmed);
  EXPECT_FALSE(runtime.worker(1).warmed);
}

TEST(EpochRuntimeTest, SerialRuntimeRunsInlineOnWorkerZero) {
  // parallelism <= 1 must not spawn threads; everything lands on worker 0.
  for (std::size_t parallelism : {std::size_t{0}, std::size_t{1}}) {
    EpochRuntime runtime(parallelism);
    EXPECT_EQ(runtime.num_workers(), 1u);
    constexpr std::size_t kSlots = 5;
    std::vector<std::atomic<int>> hits(kSlots);
    std::atomic<std::size_t> max_worker{0};
    RunRecordedEpoch(runtime, kSlots, hits, max_worker);
    EXPECT_EQ(max_worker.load(), 0u);
    EXPECT_EQ(runtime.worker(0).contents_solved, kSlots);
    EXPECT_TRUE(runtime.worker(0).warmed);
  }
}

// ---------------------------------------------------------------------------
// PlanEpochInto against the persistent pool: bit-identity and error paths.
// The framework/observation fixtures live in epoch_test_util.h, shared
// with the degradation and allocation suites.

TEST(PlanEpochIntoTest, MatchesPlanEpochBitIdentically) {
  auto framework = MakeFramework(4, 1);
  const EpochObservation obs = MakeObservation(4);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  auto plan = framework.PlanEpoch(obs).value();
  ASSERT_EQ(buffer.num_active, plan.equilibria.size());
  EXPECT_EQ(buffer.active, plan.active);
  EXPECT_EQ(buffer.popularity, plan.popularity);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    EXPECT_EQ(buffer.results[slot].content, plan.equilibrium_content[slot]);
    ExpectEquilibriumIdentical(buffer.results[slot].equilibrium,
                               plan.equilibria[slot]);
  }
}

TEST(PlanEpochIntoTest, BufferReuseIsBitIdentical) {
  // The warmed path (epoch >= 2) rewrites every slot in place; re-solving
  // the same observation must reproduce the fresh solve bit for bit.
  auto framework = MakeFramework(3, 1);
  const EpochObservation obs = MakeObservation(3);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  std::vector<Equilibrium> first_epoch;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    first_epoch.push_back(buffer.results[slot].equilibrium);
  }
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_EQ(buffer.num_active, first_epoch.size());
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    ExpectEquilibriumIdentical(buffer.results[slot].equilibrium,
                               first_epoch[slot]);
  }
}

TEST(PlanEpochIntoTest, ParallelPoolMatchesSerialBitIdentically) {
  auto serial = MakeFramework(5, 1);
  auto parallel = MakeFramework(5, 4);
  const EpochObservation obs = MakeObservation(5);
  EpochPlanBuffer serial_buffer;
  EpochPlanBuffer parallel_buffer;
  ASSERT_TRUE(serial.PlanEpochInto(obs, serial_buffer).ok());
  // Two parallel epochs: the round-robin warmup schedule and the
  // work-stealing steady state must both match the serial plan.
  for (int epoch = 0; epoch < 2; ++epoch) {
    ASSERT_TRUE(parallel.PlanEpochInto(obs, parallel_buffer).ok());
    ASSERT_EQ(parallel_buffer.num_active, serial_buffer.num_active);
    for (std::size_t slot = 0; slot < serial_buffer.num_active; ++slot) {
      EXPECT_EQ(parallel_buffer.results[slot].content,
                serial_buffer.results[slot].content);
      ExpectEquilibriumIdentical(parallel_buffer.results[slot].equilibrium,
                                 serial_buffer.results[slot].equilibrium);
    }
  }
}

TEST(PlanEpochIntoTest, SkipsInactiveContents) {
  auto framework = MakeFramework(3, 1);
  EpochObservation obs = MakeObservation(3);
  obs.request_counts[1] = 0;  // Not requested -> not in K'.
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  EXPECT_EQ(buffer.num_active, 2u);
  EXPECT_TRUE(buffer.active[0]);
  EXPECT_FALSE(buffer.active[1]);
  EXPECT_TRUE(buffer.active[2]);
  EXPECT_EQ(buffer.results[0].content, 0u);
  EXPECT_EQ(buffer.results[1].content, 2u);
}

TEST(PlanEpochIntoTest, FailedSolveNamesTheContent) {
  // Regression: worker failures used to be re-reported verbatim, so an
  // epoch over hundreds of contents died with no hint of which one was
  // bad. The propagated status must name the failing content id.
  auto framework = MakeFramework(4, 1);
  EpochObservation obs = MakeObservation(4);
  obs.mean_timeliness[2] = -1.0;  // Invalid for content 2 only.
  EpochPlanBuffer buffer;
  const common::Status status = framework.PlanEpochInto(obs, buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_THAT(status.message(), HasSubstr("content 2"));
  EXPECT_THAT(status.message(), HasSubstr("timeliness"));
  // The convenience wrapper carries the same annotated status.
  const auto plan = framework.PlanEpoch(obs);
  ASSERT_FALSE(plan.ok());
  EXPECT_THAT(plan.status().message(), HasSubstr("content 2"));
}

TEST(PlanEpochIntoTest, AggregatesEveryFailedContentIntoOneStatus) {
  // With several bad slots the epoch status must name all of them, not
  // just the first — and the per-slot statuses must stay intact.
  auto framework = MakeFramework(5, 1);
  EpochObservation obs = MakeObservation(5);
  obs.mean_timeliness[1] = -1.0;
  obs.mean_timeliness[3] = -2.0;
  EpochPlanBuffer buffer;
  const common::Status status = framework.PlanEpochInto(obs, buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_THAT(status.message(), HasSubstr("2 contents failed"));
  EXPECT_THAT(status.message(), HasSubstr("content 1"));
  EXPECT_THAT(status.message(), HasSubstr("content 3"));
  ASSERT_EQ(buffer.num_active, 5u);
  std::size_t failed_slots = 0;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    if (buffer.outcomes[slot] == SlotOutcome::kFailed) {
      EXPECT_FALSE(buffer.statuses[slot].ok());
      ++failed_slots;
    } else {
      EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kSolved);
      EXPECT_TRUE(buffer.statuses[slot].ok());
    }
  }
  EXPECT_EQ(failed_slots, 2u);
}

TEST(PlanEpochIntoTest, FrameworkReportsPoolTelemetry) {
  auto framework = MakeFramework(6, 2);
  const EpochObservation obs = MakeObservation(6);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  const EpochRuntime& runtime = framework.epoch_runtime();
  ASSERT_EQ(runtime.num_workers(), 2u);
  std::size_t total = 0;
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    EXPECT_TRUE(runtime.worker(w).warmed);
    total += runtime.worker(w).contents_solved;
  }
  EXPECT_EQ(total, buffer.num_active);
}

}  // namespace
}  // namespace mfg::core
