#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/fault_injection.h"
#include "core/mfg_cp.h"
#include "core/policy.h"
#include "epoch_test_util.h"

// The recovery ladder under injected faults (ARCHITECTURE.md §5): every
// rung — relaxed retry, carry-forward, static fallback — per fault site,
// the unrecoverable path, and the golden determinism contract (a faulted
// epoch is bit-identical at any parallelism, and non-faulted slots are
// bit-identical to the fault-free run).

namespace mfg::core {
namespace {

using ::mfg::core::testing::ExpectEquilibriumIdentical;
using ::mfg::core::testing::ExpectPlanBuffersIdentical;
using ::mfg::core::testing::MakeFramework;
using ::mfg::core::testing::MakeObservation;
using ::testing::HasSubstr;

#if !MFGCP_FAULTS_ENABLED

TEST(EpochDegradationTest, RequiresTheFaultSeam) {
  GTEST_SKIP() << "built with MFGCP_FAULTS=OFF; fault-path tests need the "
                  "injection seam";
}

#else  // MFGCP_FAULTS_ENABLED

// Arms `plan` and runs one epoch, asserting the epoch-level status is Ok.
void PlanUnderFaults(const MfgCpFramework& framework,
                     const EpochObservation& obs, const faults::FaultPlan& plan,
                     EpochPlanBuffer& buffer) {
  faults::ScopedFaultInjection arm(plan);
  ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
}

faults::FaultSpec SpecAt(faults::FaultSite site, std::size_t epoch,
                         std::size_t content, std::size_t fail_attempts) {
  faults::FaultSpec spec;
  spec.site = site;
  spec.epoch = epoch;
  spec.content = content;
  spec.fail_attempts = fail_attempts;
  return spec;
}

TEST(EpochDegradationTest, TransientFaultRecoversOnRetry) {
  auto framework = MakeFramework(4, 1);
  const EpochObservation obs = MakeObservation(4);
  faults::FaultPlan plan;
  plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 2, 1));  // First try only.
  EpochPlanBuffer buffer;
  PlanUnderFaults(framework, obs, plan, buffer);
  ASSERT_EQ(buffer.num_active, 4u);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    ASSERT_TRUE(buffer.statuses[slot].ok());
    if (buffer.results[slot].content == 2) {
      EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kRetried);
      EXPECT_EQ(buffer.results[slot].attempts, 2u);
    } else {
      EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kSolved);
      EXPECT_EQ(buffer.results[slot].attempts, 1u);
    }
  }
}

TEST(EpochDegradationTest, PermanentFaultCarriesLastGoodForward) {
  auto framework = MakeFramework(4, 1);
  // Epoch 0 is healthy and populates last_good for every content.
  EpochPlanBuffer buffer;
  const EpochObservation healthy = MakeObservation(4);
  ASSERT_TRUE(framework.PlanEpochInto(healthy, buffer).ok());
  Equilibrium epoch0_eq;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    if (buffer.results[slot].content == 1) {
      epoch0_eq = buffer.results[slot].equilibrium;
    }
  }

  // Epoch 1 changes the observation (different equilibria) and perma-fails
  // content 1: its slot must reproduce the epoch-0 equilibrium.
  EpochObservation changed = MakeObservation(4);
  changed.request_counts.assign(4, 25);
  changed.mean_timeliness.assign(4, 3.5);
  faults::FaultPlan plan;
  plan.Add(SpecAt(faults::FaultSite::kSolve, 1, 1,
                  faults::FaultSpec::kAlways));
  PlanUnderFaults(framework, changed, plan, buffer);
  bool checked = false;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    ASSERT_TRUE(buffer.statuses[slot].ok());
    if (buffer.results[slot].content != 1) continue;
    EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kCarriedForward);
    // Retries were exhausted first: 1 nominal + kLadderMaxRetries relaxed.
    EXPECT_EQ(buffer.results[slot].attempts, 1 + kLadderMaxRetries);
    ExpectEquilibriumIdentical(buffer.results[slot].equilibrium, epoch0_eq);
    checked = true;
  }
  EXPECT_TRUE(checked);
}

TEST(EpochDegradationTest, NoHistoryFallsBackToStaticPolicy) {
  auto framework = MakeFramework(4, 1);
  const EpochObservation obs = MakeObservation(4);
  // Epoch 0, content 0 perma-fails with no last_good to lean on. Content 0
  // has the top Zipf popularity, so the static fallback caches at rate 1.
  faults::FaultPlan plan;
  plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 0,
                  faults::FaultSpec::kAlways));
  EpochPlanBuffer buffer;
  PlanUnderFaults(framework, obs, plan, buffer);
  bool checked = false;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    ASSERT_TRUE(buffer.statuses[slot].ok());
    if (buffer.results[slot].content != 0) continue;
    EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kFallback);
    const Equilibrium& eq = buffer.results[slot].equilibrium;
    const std::size_t nt =
        framework.options().base_params.grid.num_time_steps;
    ASSERT_EQ(eq.hjb.policy.size(), nt + 1);
    for (std::size_t n = 0; n <= nt; ++n) {
      for (double rate : eq.hjb.policy[n]) EXPECT_EQ(rate, 1.0);
    }
    // The fallback must be consumable by the policy layer.
    EXPECT_TRUE(
        MfgPolicy::Create(buffer.results[slot].params, eq).ok());
    checked = true;
  }
  EXPECT_TRUE(checked);

  // A later content (bottom of the popularity ranking) caches at rate 0.
  faults::FaultPlan cold_plan;
  cold_plan.Add(SpecAt(faults::FaultSite::kSolve, 1, 3,
                       faults::FaultSpec::kAlways));
  // Forget content 3's history so the ladder reaches the fallback rung.
  buffer.last_good[3].valid = false;
  PlanUnderFaults(framework, obs, cold_plan, buffer);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    if (buffer.results[slot].content != 3) continue;
    ASSERT_EQ(buffer.outcomes[slot], SlotOutcome::kFallback);
    const numerics::TimeField2D& policy =
        buffer.results[slot].equilibrium.hjb.policy;
    for (std::size_t n = 0; n < policy.size(); ++n) {
      for (double rate : policy[n]) EXPECT_EQ(rate, 0.0);
    }
  }
}

TEST(EpochDegradationTest, EveryFaultSiteRunsTheLadder) {
  const faults::FaultSite sites[] = {
      faults::FaultSite::kParamsBuild, faults::FaultSite::kRebind,
      faults::FaultSite::kSolve,       faults::FaultSite::kHjbStep,
      faults::FaultSite::kFpkStep,
  };
  for (faults::FaultSite site : sites) {
    SCOPED_TRACE(faults::FaultSiteName(site));
    auto framework = MakeFramework(3, 1);
    const EpochObservation obs = MakeObservation(3);
    EpochPlanBuffer buffer;

    // Transient at this site -> recovered by a retry.
    faults::FaultPlan transient;
    transient.Add(SpecAt(site, 0, 1, 1));
    PlanUnderFaults(framework, obs, transient, buffer);
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      if (buffer.results[slot].content == 1) {
        EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kRetried);
      }
    }

    // Permanent at this site -> carried forward from the retry's save.
    faults::FaultPlan permanent;
    permanent.Add(SpecAt(site, 1, 1, faults::FaultSpec::kAlways));
    PlanUnderFaults(framework, obs, permanent, buffer);
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      if (buffer.results[slot].content == 1) {
        EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kCarriedForward);
      }
    }
  }
}

TEST(EpochDegradationTest, ForcedNonConvergenceRetries) {
  auto framework = MakeFramework(3, 1);
  const EpochObservation obs = MakeObservation(3);
  faults::FaultPlan plan;
  // Attempt 0's solve is forced unconverged; the first retry is clean.
  plan.Add(SpecAt(faults::FaultSite::kNonConvergence, 0, 1, 1));
  EpochPlanBuffer buffer;
  PlanUnderFaults(framework, obs, plan, buffer);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    ASSERT_TRUE(buffer.statuses[slot].ok());
    if (buffer.results[slot].content == 1) {
      EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kRetried);
      EXPECT_TRUE(buffer.results[slot].equilibrium.converged);
    }
  }
}

TEST(EpochDegradationTest, UnrecoverableCodeFailsTheSlotAndEpoch) {
  auto framework = MakeFramework(3, 1);
  const EpochObservation obs = MakeObservation(3);
  faults::FaultPlan plan;
  faults::FaultSpec spec = SpecAt(faults::FaultSite::kSolve, 0, 1,
                                  faults::FaultSpec::kAlways);
  spec.code = common::StatusCode::kInvalidArgument;
  plan.Add(spec);
  faults::ScopedFaultInjection arm(plan);
  EpochPlanBuffer buffer;
  const common::Status status = framework.PlanEpochInto(obs, buffer);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_THAT(status.message(), HasSubstr("content 1"));
  EXPECT_THAT(status.message(), HasSubstr("injected fault"));
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    if (buffer.results[slot].content == 1) {
      EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kFailed);
      // No relaxed retries for a configuration error.
      EXPECT_EQ(buffer.results[slot].attempts, 1u);
    } else {
      EXPECT_EQ(buffer.outcomes[slot], SlotOutcome::kSolved);
    }
  }
}

TEST(EpochDegradationTest, NonFaultedSlotsMatchTheFaultFreeRun) {
  // The acceptance bar: inject one fault, and every *other* slot must be
  // bit-identical to the run with no faults at all — at every tested
  // parallelism.
  for (std::size_t parallelism : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    SCOPED_TRACE(parallelism);
    auto clean_framework = MakeFramework(6, parallelism);
    auto faulted_framework = MakeFramework(6, parallelism);
    const EpochObservation obs = MakeObservation(6);
    EpochPlanBuffer clean;
    EpochPlanBuffer faulted;
    ASSERT_TRUE(clean_framework.PlanEpochInto(obs, clean).ok());
    faults::FaultPlan plan;
    plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 3,
                    faults::FaultSpec::kAlways));
    PlanUnderFaults(faulted_framework, obs, plan, faulted);
    ASSERT_EQ(faulted.num_active, clean.num_active);
    for (std::size_t slot = 0; slot < clean.num_active; ++slot) {
      if (faulted.results[slot].content == 3) {
        // No history in epoch 0: the degraded slot is the fallback.
        EXPECT_EQ(faulted.outcomes[slot], SlotOutcome::kFallback);
        continue;
      }
      EXPECT_EQ(faulted.outcomes[slot], SlotOutcome::kSolved);
      ExpectEquilibriumIdentical(faulted.results[slot].equilibrium,
                                 clean.results[slot].equilibrium);
    }
  }
}

TEST(EpochDegradationTest, GoldenDeterminismAcrossParallelism) {
  // Three epochs under a seeded fault plan: the full plan buffer —
  // outcomes, attempts, statuses, equilibria — must be bit-identical at
  // parallelism 1, 2, and 8.
  faults::FaultPlan::SeedOptions seed;
  seed.seed = 7;
  seed.num_epochs = 3;
  seed.num_contents = 6;
  seed.fault_rate = 0.35;
  seed.sites = {faults::FaultSite::kSolve, faults::FaultSite::kHjbStep,
                faults::FaultSite::kFpkStep,
                faults::FaultSite::kNonConvergence};
  const faults::FaultPlan plan = faults::FaultPlan::FromSeed(seed);
  ASSERT_FALSE(plan.empty());

  auto run = [&](std::size_t parallelism, std::vector<EpochPlanBuffer>& out) {
    auto framework = MakeFramework(6, parallelism);
    EpochPlanBuffer buffer;
    faults::ScopedFaultInjection arm(plan);
    for (std::size_t epoch = 0; epoch < seed.num_epochs; ++epoch) {
      EpochObservation obs = MakeObservation(6);
      obs.request_counts.assign(6, 10 + 5 * epoch);  // Epochs differ.
      ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
      out.push_back(buffer);  // Deep copy of this epoch's state.
    }
  };

  std::vector<EpochPlanBuffer> serial;
  run(1, serial);
  ASSERT_EQ(serial.size(), seed.num_epochs);
  // The scenario must actually degrade something, or it proves nothing.
  bool any_degraded = false;
  for (const EpochPlanBuffer& buffer : serial) {
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      if (buffer.outcomes[slot] != SlotOutcome::kSolved) any_degraded = true;
    }
  }
  EXPECT_TRUE(any_degraded);

  for (std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(parallelism);
    std::vector<EpochPlanBuffer> parallel;
    run(parallelism, parallel);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t epoch = 0; epoch < serial.size(); ++epoch) {
      SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
      ExpectPlanBuffersIdentical(parallel[epoch], serial[epoch]);
    }
  }
}

TEST(EpochDegradationTest, GoldenDeterminismAcrossBatchWidths) {
  // Same seeded fault scenario through the block-claiming batch scheduler:
  // the plan buffers must be bit-identical whether contents are solved one
  // per slot (batch_width 1), in remainder-producing blocks of 3, or in
  // the default blocks of 8 — and, for each width, at parallelism 1/2/8.
  // Degraded lanes stay on the recovery ladder, whose relaxed retries run
  // as the lanes of the block's next solve, so this also pins that a
  // retried slot does not depend on which slots retry beside it.
  faults::FaultPlan::SeedOptions seed;
  seed.seed = 11;
  seed.num_epochs = 2;
  seed.num_contents = 7;
  seed.fault_rate = 0.35;
  seed.sites = {faults::FaultSite::kSolve, faults::FaultSite::kHjbStep,
                faults::FaultSite::kFpkStep,
                faults::FaultSite::kNonConvergence};
  const faults::FaultPlan plan = faults::FaultPlan::FromSeed(seed);
  ASSERT_FALSE(plan.empty());

  auto run = [&](std::size_t parallelism, std::size_t batch_width,
                 std::vector<EpochPlanBuffer>& out) {
    MfgCpOptions options = testing::FastOptions(parallelism);
    options.batch_width = batch_width;
    auto framework = MakeFramework(7, parallelism, &options);
    EpochPlanBuffer buffer;
    faults::ScopedFaultInjection arm(plan);
    for (std::size_t epoch = 0; epoch < seed.num_epochs; ++epoch) {
      EpochObservation obs = MakeObservation(7);
      obs.request_counts.assign(7, 10 + 5 * epoch);
      ASSERT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
      out.push_back(buffer);
    }
  };

  std::vector<EpochPlanBuffer> reference;
  run(1, 1, reference);
  ASSERT_EQ(reference.size(), seed.num_epochs);
  bool any_degraded = false;
  for (const EpochPlanBuffer& buffer : reference) {
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      if (buffer.outcomes[slot] != SlotOutcome::kSolved) any_degraded = true;
    }
  }
  EXPECT_TRUE(any_degraded);

  for (std::size_t batch_width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
      if (batch_width == 1 && parallelism == 1) continue;  // The reference.
      SCOPED_TRACE(::testing::Message() << "batch_width " << batch_width
                                        << " parallelism " << parallelism);
      std::vector<EpochPlanBuffer> buffers;
      run(parallelism, batch_width, buffers);
      ASSERT_EQ(buffers.size(), reference.size());
      for (std::size_t epoch = 0; epoch < reference.size(); ++epoch) {
        SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
        ExpectPlanBuffersIdentical(buffers[epoch], reference[epoch]);
      }
    }
  }
}

TEST(EpochDegradationTest, RetriesInOneBlockMatchWidthOne) {
  // Serially, the 8 contents form one width-8 block. Three of its slots
  // fail their first attempt, so attempt 1 solves them as three lanes of
  // one batch; content 5 fails attempt 1 too and retries alone at attempt
  // 2. Every slot must match the width-1 run, where each retry is a block
  // of its own, and the parallel run, whose 4 workers split the epoch into
  // blocks of 2.
  faults::FaultPlan plan;
  plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 1, 1));
  plan.Add(SpecAt(faults::FaultSite::kHjbStep, 0, 3, 1));
  plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 5, 2));

  auto run = [&](std::size_t parallelism, std::size_t batch_width,
                 EpochPlanBuffer& buffer) {
    MfgCpOptions options = testing::FastOptions(parallelism);
    options.batch_width = batch_width;
    auto framework = MakeFramework(8, parallelism, &options);
    PlanUnderFaults(framework, MakeObservation(8), plan, buffer);
  };

  EpochPlanBuffer reference;
  run(1, 1, reference);
  ASSERT_EQ(reference.num_active, 8u);
  for (std::size_t slot = 0; slot < reference.num_active; ++slot) {
    const std::size_t k = reference.results[slot].content;
    SCOPED_TRACE(::testing::Message() << "content " << k);
    ASSERT_TRUE(reference.statuses[slot].ok());
    const std::size_t attempts = k == 5 ? 3 : (k == 1 || k == 3) ? 2 : 1;
    EXPECT_EQ(reference.results[slot].attempts, attempts);
    EXPECT_EQ(reference.outcomes[slot], attempts == 1 ? SlotOutcome::kSolved
                                                      : SlotOutcome::kRetried);
    EXPECT_TRUE(reference.results[slot].equilibrium.converged);
  }

  for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "parallelism " << parallelism);
    EpochPlanBuffer batched;
    run(parallelism, 8, batched);
    ExpectPlanBuffersIdentical(batched, reference);
  }
}

TEST(EpochDegradationTest, InjectedFaultCounterSeesTheScenario) {
  auto framework = MakeFramework(3, 1);
  const EpochObservation obs = MakeObservation(3);
  faults::FaultPlan plan;
  plan.Add(SpecAt(faults::FaultSite::kSolve, 0, 0, 1));
  faults::ResetInjectedFaultCount();
  EpochPlanBuffer buffer;
  PlanUnderFaults(framework, obs, plan, buffer);
  EXPECT_EQ(faults::InjectedFaultCount(), 1u);
}

#endif  // MFGCP_FAULTS_ENABLED

}  // namespace
}  // namespace mfg::core
