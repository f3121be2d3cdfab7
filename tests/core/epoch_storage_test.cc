// One stored equilibrium per content (EpochPlanBuffer "Storage"): a
// content's params + Equilibrium pair moves between its last_good home and
// its slot and is never duplicated, a failed solve's slot already holds the
// equilibrium it carries forward, and every slot's stored mean caching rate
// is the one plan publication would compute from its policy.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fault_injection.h"
#include "core/mfg_cp.h"
#include "core/plan_publication.h"
#include "epoch_test_util.h"

namespace mfg::core {
namespace {

using ::mfg::core::testing::ExpectEquilibriumIdentical;
using ::mfg::core::testing::MakeFramework;
using ::mfg::core::testing::MakeObservation;

bool Shaped(const Equilibrium& eq) { return !eq.hjb.policy.flat().empty(); }

// Shaped equilibria reachable from the buffer: the current slots plus every
// last_good home.
std::size_t ShapedStorages(const EpochPlanBuffer& buffer) {
  std::size_t count = 0;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    if (Shaped(buffer.results[slot].equilibrium)) ++count;
  }
  for (const EpochPlanBuffer::LastGood& home : buffer.last_good) {
    if (Shaped(home.equilibrium)) ++count;
  }
  return count;
}

std::size_t SlotOf(const EpochPlanBuffer& buffer, content::ContentId k) {
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    if (buffer.results[slot].content == k) return slot;
  }
  return buffer.num_active;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class EpochStorageTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpochStorageTest, OneStoragePerContentAcrossEpochs) {
  constexpr std::size_t kContents = 8;
  auto framework = MakeFramework(kContents, GetParam());
  EpochPlanBuffer buffer;
  EpochObservation obs = MakeObservation(kContents);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    obs.request_counts.assign(kContents, 10 + 5 * epoch);
    ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  }
  ASSERT_EQ(buffer.num_active, kContents);
  EXPECT_EQ(ShapedStorages(buffer), kContents);
  for (std::size_t k = 0; k < kContents; ++k) {
    EXPECT_TRUE(buffer.last_good[k].valid) << "content " << k;
    EXPECT_FALSE(Shaped(buffer.last_good[k].equilibrium)) << "content " << k;
  }

  // Content 2 leaves K': its storage goes home, still the only copy, and
  // comes back into its slot when it is requested again.
  const double* home_policy = nullptr;
  obs.request_counts[2] = 0;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_EQ(buffer.num_active, kContents - 1);
  EXPECT_EQ(SlotOf(buffer, 2), buffer.num_active);
  EXPECT_EQ(ShapedStorages(buffer), kContents);
  EXPECT_TRUE(buffer.last_good[2].valid);
  ASSERT_TRUE(Shaped(buffer.last_good[2].equilibrium));
  home_policy = buffer.last_good[2].equilibrium.hjb.policy.data();

  obs.request_counts[2] = 15;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  ASSERT_EQ(buffer.num_active, kContents);
  EXPECT_EQ(ShapedStorages(buffer), kContents);
  EXPECT_FALSE(Shaped(buffer.last_good[2].equilibrium));
  // The solve swapped its lane scratch in; the home storage it replaced is
  // now a lane's scratch, not a second copy in the buffer.
  EXPECT_NE(buffer.results[SlotOf(buffer, 2)].equilibrium.hjb.policy.data(),
            home_policy);
}

TEST_P(EpochStorageTest, StoredMeanRatesMatchThePolicyWalk) {
  constexpr std::size_t kContents = 9;
  auto framework = MakeFramework(kContents, GetParam());
  EpochPlanBuffer buffer;
  const EpochObservation obs = MakeObservation(kContents);
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  std::vector<double> score;
  PublishedPlan plan;
  ComputePlacementScores(buffer, score);
  SnapshotPublishedPlan(buffer, plan);
  ASSERT_EQ(buffer.num_active, kContents);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    const EpochContentResult& result = buffer.results[slot];
    ASSERT_TRUE(result.equilibrium.mean_caching_rate.has_value());
    const double walked = MeanCachingRate(result.equilibrium.hjb.policy);
    EXPECT_EQ(Bits(*result.equilibrium.mean_caching_rate), Bits(walked));
    EXPECT_EQ(Bits(plan.mean_rate[result.content]), Bits(walked));
    EXPECT_EQ(Bits(score[result.content]), Bits(plan.score[result.content]));
  }
}

#if MFGCP_FAULTS_ENABLED

faults::FaultSpec PermanentSolveFault(std::size_t epoch, std::size_t content) {
  faults::FaultSpec spec;
  spec.site = faults::FaultSite::kSolve;
  spec.epoch = epoch;
  spec.content = content;
  spec.fail_attempts = faults::FaultSpec::kAlways;
  return spec;
}

TEST_P(EpochStorageTest, PermaFailedSlotKeepsItsStorage) {
  constexpr std::size_t kContents = 4;
  auto framework = MakeFramework(kContents, GetParam());
  EpochPlanBuffer buffer;
  ASSERT_TRUE(
      framework.PlanEpochInto(MakeObservation(kContents), buffer).ok());
  const std::size_t slot = SlotOf(buffer, 1);
  ASSERT_LT(slot, buffer.num_active);
  const Equilibrium epoch0 = buffer.results[slot].equilibrium;
  const double* storage = buffer.results[slot].equilibrium.hjb.policy.data();

  EpochObservation changed = MakeObservation(kContents);
  changed.request_counts.assign(kContents, 25);
  changed.mean_timeliness.assign(kContents, 3.5);
  faults::FaultPlan plan;
  plan.Add(PermanentSolveFault(1, 1));
  {
    faults::ScopedFaultInjection arm(plan);
    ASSERT_TRUE(framework.PlanEpochInto(changed, buffer).ok());
  }
  ASSERT_EQ(SlotOf(buffer, 1), slot);
  ASSERT_EQ(buffer.outcomes[slot], SlotOutcome::kCarriedForward);
  const Equilibrium& carried = buffer.results[slot].equilibrium;
  ExpectEquilibriumIdentical(carried, epoch0);
  // The same buffers: the slot kept its storage instead of copying it.
  EXPECT_EQ(carried.hjb.policy.data(), storage);
  EXPECT_EQ(ShapedStorages(buffer), kContents);
  ASSERT_TRUE(carried.mean_caching_rate.has_value());
  EXPECT_EQ(Bits(*carried.mean_caching_rate),
            Bits(MeanCachingRate(carried.hjb.policy)));
}

TEST_P(EpochStorageTest, FallbackAndUnconvergedIterateStoreTheirRates) {
  constexpr std::size_t kContents = 4;
  auto framework = MakeFramework(kContents, GetParam());
  const EpochObservation obs = MakeObservation(kContents);
  EpochPlanBuffer buffer;
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());

  // Epoch 1: content 3 forgets its history and perma-fails (static
  // fallback); content 0 stays unconverged on every attempt (shipped
  // iterate, its last good kept home).
  buffer.last_good[3].valid = false;
  faults::FaultPlan plan;
  plan.Add(PermanentSolveFault(1, 3));
  faults::FaultSpec unconverged;
  unconverged.site = faults::FaultSite::kNonConvergence;
  unconverged.epoch = 1;
  unconverged.content = 0;
  unconverged.fail_attempts = faults::FaultSpec::kAlways;
  plan.Add(unconverged);
  {
    faults::ScopedFaultInjection arm(plan);
    ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  }
  ASSERT_EQ(buffer.outcomes[SlotOf(buffer, 3)], SlotOutcome::kFallback);
  ASSERT_EQ(buffer.outcomes[SlotOf(buffer, 0)], SlotOutcome::kRetried);
  EXPECT_FALSE(buffer.results[SlotOf(buffer, 0)].equilibrium.converged);
  // The iterate is the one second object: content 0's last good is home.
  EXPECT_TRUE(buffer.last_good[0].valid);
  EXPECT_TRUE(buffer.last_good[0].equilibrium.converged);
  EXPECT_EQ(ShapedStorages(buffer), kContents + 1);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    const Equilibrium& eq = buffer.results[slot].equilibrium;
    ASSERT_TRUE(eq.mean_caching_rate.has_value()) << "slot " << slot;
    EXPECT_EQ(Bits(*eq.mean_caching_rate), Bits(MeanCachingRate(eq.hjb.policy)))
        << "slot " << slot;
  }

  // Epoch 2 is clean: the iterate is dropped, content 0's last good comes
  // back into its slot and is replaced by the fresh solve.
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
  EXPECT_EQ(ShapedStorages(buffer), kContents);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kSolved);
  }
}

#endif  // MFGCP_FAULTS_ENABLED

INSTANTIATE_TEST_SUITE_P(Parallelism, EpochStorageTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace mfg::core
