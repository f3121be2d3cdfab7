// Asserts the zero-allocation contract of the warmed epoch path. This
// binary links mfgcp_obs_alloc_hooks, so every operator new in the
// process bumps the probe; a warmed PlanEpochInto on a homogeneous-shape
// catalog must not bump it at all — globally and per worker — at any
// pool width, also while the metrics streamer samples and while the
// flight journal records.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fault_injection.h"
#include "core/mfg_cp.h"
#include "epoch_test_util.h"
#include "obs/alloc_probe.h"
#include "obs/flight_recorder.h"
#include "obs/stream.h"

namespace mfg::core {
namespace {

using ::mfg::core::testing::MakeFramework;
using ::mfg::core::testing::MakeObservation;

// Note the recovery ladder is enabled by default: these tests also pin
// down that its bookkeeping (outcomes, last-good copies) stays off the
// heap on the no-fault path.
void ExpectWarmedEpochAllocationFree(
    std::size_t parallelism,
    std::size_t batch_width = MfgCpOptions().batch_width) {
  constexpr std::size_t kContents = 8;
  MfgCpOptions options = ::mfg::core::testing::FastOptions(parallelism);
  options.batch_width = batch_width;
  auto framework = MakeFramework(kContents, parallelism, &options);
  const EpochObservation obs = MakeObservation(kContents);
  EpochPlanBuffer buffer;
  // Epoch 1 is the round-robin warmup (sizes every worker's learner and
  // workspace); epoch 2 confirms the buffer high-water marks.
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());

  const std::size_t before = obs::AllocationCount();
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  const std::size_t after = obs::AllocationCount();
  EXPECT_EQ(after - before, 0u) << "warmed epoch allocated";

  const EpochRuntime& runtime = framework.epoch_runtime();
  EXPECT_EQ(runtime.last_epoch_allocations(), 0u);
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    EXPECT_EQ(runtime.worker(w).allocations, 0u) << "worker " << w;
  }
}

TEST(EpochAllocTest, WarmedSerialEpochIsAllocationFree) {
  ExpectWarmedEpochAllocationFree(1);
}

TEST(EpochAllocTest, WarmedParallelEpochIsAllocationFree) {
  ExpectWarmedEpochAllocationFree(4);
}

// Width 1 runs the same block path one lane at a time.
TEST(EpochAllocTest, WarmedWidthOneEpochIsAllocationFree) {
  ExpectWarmedEpochAllocationFree(1, 1);
  ExpectWarmedEpochAllocationFree(4, 1);
}

// 13 contents at batch width 8 split into a block of 8 and a ragged block
// of 5, so one serial worker re-binds its learner at alternating widths
// every epoch. Shrinking to 5 lanes must not drop the per-lane state that
// the next 8-wide block needs again.
TEST(EpochAllocTest, RaggedBlocksStayAllocationFree) {
  constexpr std::size_t kContents = 13;
  MfgCpOptions options = ::mfg::core::testing::FastOptions(1);
  options.batch_width = 8;
  auto framework = MakeFramework(kContents, 1, &options);
  const EpochObservation obs = MakeObservation(kContents);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());

  const std::size_t before = obs::AllocationCount();
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  EXPECT_EQ(obs::AllocationCount() - before, 0u)
      << "warmed epoch with a ragged block allocated";
}

#if MFGCP_FAULTS_ENABLED
TEST(EpochAllocTest, CleanEpochAfterAFaultEpochIsAllocationFree) {
  // A faulted epoch may allocate (error strings, relaxed-retry resizing,
  // WARN logs) — that's the error path. The contract is that the *next*
  // clean epoch is back to zero.
  constexpr std::size_t kContents = 8;
  auto framework = MakeFramework(kContents, 4);
  const EpochObservation obs = MakeObservation(kContents);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());

  {
    faults::FaultPlan plan;
    faults::FaultSpec spec;
    spec.site = faults::FaultSite::kSolve;
    spec.epoch = buffer.epoch_index;  // The epoch about to run.
    spec.content = 2;
    spec.fail_attempts = 1;  // Transient: recovered by the first retry.
    plan.Add(spec);
    faults::ScopedFaultInjection arm(plan);
    ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  }

  // One more clean epoch re-warms the high-water marks the fault epoch
  // may have moved (longer retry histories), then measure.
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  const std::size_t before = obs::AllocationCount();
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  EXPECT_EQ(obs::AllocationCount() - before, 0u)
      << "clean epoch after a fault epoch allocated";
}
#endif  // MFGCP_FAULTS_ENABLED

// Plans one warmed epoch and returns the allocations of the threads that
// planned it: the calling thread's delta plus each pool worker's. Other
// threads of the process are not counted, so a metrics sampler's own row
// building stays the sampler's. (At parallelism 1 the one worker is the
// calling thread and its delta counts twice, which a zero check allows.)
std::size_t PlanEpochCountingPlannerAllocations(
    MfgCpFramework& framework, const EpochObservation& obs,
    EpochPlanBuffer& buffer) {
  const std::size_t before = obs::ThreadAllocationCount();
  EXPECT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  return obs::ThreadAllocationCount() - before +
         framework.epoch_runtime().last_epoch_allocations();
}

// Warmed epochs while the MetricsStreamer samples the registry: sampling
// stays off the solver path (obs/stream.h), so the planning threads make
// no allocation. Epochs run until the sampler has written at least one
// window beyond its Start baseline, so the count covers live sampling.
void ExpectStreamedEpochsAllocationFree(std::size_t parallelism) {
  if (!MFGCP_OBS_ENABLED) GTEST_SKIP() << "built with -DMFGCP_OBS=OFF";
  constexpr std::size_t kContents = 8;
  constexpr std::size_t kMaxEpochs = 2000;
  auto framework = MakeFramework(kContents, parallelism);
  const EpochObservation obs = MakeObservation(kContents);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());

  const std::string path = ::testing::TempDir() + "epoch_alloc_stream_" +
                           std::to_string(parallelism) + ".jsonl";
  obs::StreamOptions options;
  options.jsonl_path = path;
  options.period = std::chrono::milliseconds(5);
  obs::MetricsStreamer& streamer = obs::MetricsStreamer::Global();
  ASSERT_TRUE(streamer.Start(options).ok());
  const std::uint64_t baseline_windows = streamer.windows_written();

  std::size_t allocations = 0;
  std::size_t epochs = 0;
  do {
    allocations += PlanEpochCountingPlannerAllocations(framework, obs, buffer);
    ++epochs;
  } while (streamer.windows_written() == baseline_windows &&
           epochs < kMaxEpochs);
  const std::uint64_t windows = streamer.windows_written() - baseline_windows;
  streamer.Stop();
  std::remove(path.c_str());

  EXPECT_EQ(allocations, 0u) << "warmed epochs allocated while streaming";
  EXPECT_GE(windows, 1u) << "the streamer sampled no window in " << epochs
                         << " epochs";
}

// Warmed epochs while the flight journal records every solve event: each
// thread's ring registers during the warm-up epochs, after which a record
// is plain stores into that ring.
void ExpectRecordedEpochAllocationFree(std::size_t parallelism) {
  if (!MFGCP_OBS_ENABLED) GTEST_SKIP() << "built with -DMFGCP_OBS=OFF";
  constexpr std::size_t kContents = 8;
  obs::FlightJournal& journal = obs::FlightJournal::Get();
  journal.SetEnabled(true);
  auto framework = MakeFramework(kContents, parallelism);
  const EpochObservation obs = MakeObservation(kContents);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());

  EXPECT_EQ(PlanEpochCountingPlannerAllocations(framework, obs, buffer), 0u)
      << "warmed epoch allocated while the flight journal recorded";

  // The journal did record the measured epoch (collecting allocates, so
  // it runs after the count).
  std::vector<obs::FlightEvent> events;
  EXPECT_GT(journal.CollectInto(buffer.epoch_index - 1,
                                buffer.results[0].content, events),
            0u);
}

TEST(EpochAllocTest, StreamedSerialEpochIsAllocationFree) {
  ExpectStreamedEpochsAllocationFree(1);
}

TEST(EpochAllocTest, StreamedParallelEpochIsAllocationFree) {
  ExpectStreamedEpochsAllocationFree(4);
}

TEST(EpochAllocTest, FlightRecordedSerialEpochIsAllocationFree) {
  ExpectRecordedEpochAllocationFree(1);
}

TEST(EpochAllocTest, FlightRecordedParallelEpochIsAllocationFree) {
  ExpectRecordedEpochAllocationFree(4);
}

TEST(EpochAllocTest, ProbeCountsThisThread) {
  const std::size_t global_before = obs::AllocationCount();
  const std::size_t thread_before = obs::ThreadAllocationCount();
  // A direct operator-new call: unlike a new-expression, the compiler may
  // not elide it, so the probe must tick.
  void* p = ::operator new(32);
  const std::size_t global_delta = obs::AllocationCount() - global_before;
  const std::size_t thread_delta =
      obs::ThreadAllocationCount() - thread_before;
  ::operator delete(p);
  if (global_delta == 0) {
    // Sanitizer builds interpose their own allocator ahead of the linked
    // override; the warmed-epoch tests above then pass vacuously (they
    // still exercise the pool, which is what TSan is there for), and
    // this probe check has nothing to measure.
    GTEST_SKIP() << "allocation hooks inactive (sanitizer allocator?)";
  }
  EXPECT_GE(global_delta, 1u);
  EXPECT_GE(thread_delta, 1u);
}

}  // namespace
}  // namespace mfg::core
