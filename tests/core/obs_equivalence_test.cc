// Observability must be read-only: recording metrics and trace spans
// cannot perturb solver arithmetic. The compile-time half of that guard is
// the MFGCP_OBS=OFF CI job, which rebuilds with every MFG_OBS_* macro
// reduced to unevaluated sizeof operands and reruns the golden tests
// (solver_equivalence_test). This file covers the runtime half: the same
// binary must produce bit-identical equilibria with the trace session
// active and inactive, and the exported convergence trace must be
// reproducible run to run.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/best_response.h"
#include "core/best_response_2d.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_cp.h"
#include "epoch_test_util.h"
#include "numerics/density.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

MfgParams SmallParams() {
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 41;
  params.grid.num_time_steps = 50;
  params.learning.max_iterations = 15;
  return params;
}

Equilibrium SolveOnce(const MfgParams& params) {
  auto learner = BestResponseLearner::Create(params);
  EXPECT_TRUE(learner.ok()) << learner.status();
  auto eq = learner->Solve();
  EXPECT_TRUE(eq.ok()) << eq.status();
  return std::move(eq).value();
}

void ExpectBitIdentical(const Equilibrium& a, const Equilibrium& b) {
  ASSERT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.policy_change_history, b.policy_change_history);
  ASSERT_EQ(a.value_change_history, b.value_change_history);
  ASSERT_EQ(a.hjb.value.size(), b.hjb.value.size());
  ASSERT_EQ(a.hjb.value.cols(), b.hjb.value.cols());
  const std::size_t total = a.hjb.value.size() * a.hjb.value.cols();
  for (std::size_t k = 0; k < total; ++k) {
    ASSERT_EQ(a.hjb.value.data()[k], b.hjb.value.data()[k]) << "k=" << k;
    ASSERT_EQ(a.hjb.policy.data()[k], b.hjb.policy.data()[k]) << "k=" << k;
  }
  ASSERT_EQ(a.fpk.densities.size(), b.fpk.densities.size());
  for (std::size_t n = 0; n < a.fpk.densities.size(); ++n) {
    ASSERT_EQ(a.fpk.densities[n].values(), b.fpk.densities[n].values())
        << "n=" << n;
  }
}

TEST(ObsEquivalenceTest, TracingDoesNotPerturbTheEquilibrium) {
  const MfgParams params = SmallParams();

  obs::TraceSession::Global().Stop();
  const Equilibrium quiet = SolveOnce(params);

  obs::TraceSession::Global().Start(1 << 12);
  const Equilibrium traced = SolveOnce(params);
  obs::TraceSession::Global().Stop();

#if MFGCP_OBS_ENABLED
  // The traced run actually recorded spans (BestResponse.Solve plus the
  // per-iteration HJB/FPK sweeps)...
  EXPECT_GT(obs::TraceSession::Global().size(), 2u);
#endif
  // ...and still produced the identical equilibrium.
  ExpectBitIdentical(quiet, traced);
}

TEST(ObsEquivalenceTest, ConvergenceTraceIsReproducible) {
  const MfgParams params = SmallParams();
  const Equilibrium first = SolveOnce(params);
  const Equilibrium second = SolveOnce(params);
  ExpectBitIdentical(first, second);

  // The exported per-iteration residual trace covers every sweep, and the
  // policy residuals end under the tolerance iff the solve converged.
  ASSERT_EQ(first.policy_change_history.size(), first.iterations);
  ASSERT_EQ(first.value_change_history.size(), first.iterations);
  ASSERT_TRUE(first.converged);
  EXPECT_LT(first.policy_change_history.back(),
            params.learning.tolerance);
  // Iteration 1 measures against the zero initialization, so both
  // residual series start strictly positive.
  EXPECT_GT(first.policy_change_history.front(), 0.0);
  EXPECT_GT(first.value_change_history.front(), 0.0);
}

TEST(ObsEquivalenceTest, SolveCountersAdvance) {
#if !MFGCP_OBS_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (MFGCP_OBS=OFF)";
#else
  const MfgParams params = SmallParams();
  obs::Registry& registry = obs::Registry::Global();
  const auto solves_before =
      registry.GetCounter("core.best_response.solves").Value();
  const auto sweeps_before = registry.GetCounter("core.hjb.sweeps").Value();
  const Equilibrium eq = SolveOnce(params);
  EXPECT_EQ(registry.GetCounter("core.best_response.solves").Value(),
            solves_before + 1);
  // One HJB sweep per best-response iteration.
  EXPECT_EQ(registry.GetCounter("core.hjb.sweeps").Value(),
            sweeps_before + eq.iterations);
#endif
}

TEST(ObsEquivalenceTest, SolverTimerCountsMatchTheirCounters) {
#if !MFGCP_OBS_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (MFGCP_OBS=OFF)";
#else
  // Each solver timer records once per content it times, scalar or
  // batched, so a histogram's count moves in step with the counter of the
  // same work — a K-lane batch must not record one sample for K counts.
  struct TimedCounter {
    const char* histogram;
    const char* counter;
  };
  constexpr TimedCounter kPairs[] = {
      {"core.hjb.sweep_seconds", "core.hjb.sweeps"},
      {"core.fpk.sweep_seconds", "core.fpk.sweeps"},
      {"core.best_response.seconds", "core.best_response.solves"},
      {"core.mean_field.trajectory_seconds", "core.mean_field.trajectories"},
  };
  constexpr std::size_t kContents = 8;
  obs::Registry& registry = obs::Registry::Global();
  for (std::size_t batch_width : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "batch_width " << batch_width);
    MfgCpOptions options = testing::FastOptions();
    options.batch_width = batch_width;
    auto framework = testing::MakeFramework(kContents, 1, &options);
    std::vector<std::uint64_t> histogram_before;
    std::vector<std::uint64_t> counter_before;
    for (const TimedCounter& pair : kPairs) {
      histogram_before.push_back(registry.GetHistogram(pair.histogram).Count());
      counter_before.push_back(registry.GetCounter(pair.counter).Value());
    }
    EpochPlanBuffer buffer;
    ASSERT_TRUE(
        framework.PlanEpochInto(testing::MakeObservation(kContents), buffer)
            .ok());
    for (std::size_t i = 0; i < std::size(kPairs); ++i) {
      const std::uint64_t counted =
          registry.GetCounter(kPairs[i].counter).Value() - counter_before[i];
      EXPECT_GE(counted, kContents) << kPairs[i].counter;
      EXPECT_EQ(registry.GetHistogram(kPairs[i].histogram).Count() -
                    histogram_before[i],
                counted)
          << kPairs[i].histogram;
    }
  }
#endif
}

TEST(ObsEquivalenceTest, TwoDimensionalSweepsCountOnlyAsTwoD) {
#if !MFGCP_OBS_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (MFGCP_OBS=OFF)";
#else
  // The 2-D solvers sweep as h-lanes of the batch solvers. A coupled sweep
  // is one 2-D sweep, not num_h_nodes content lane-sweeps: it records under
  // core.hjb_2d.* / core.fpk_2d.* and leaves the 1-D instruments alone.
  MfgParams params = SmallParams();
  params.grid.num_h_nodes = 9;
  obs::Registry& registry = obs::Registry::Global();
  auto counter = [&](const char* name) {
    return registry.GetCounter(name).Value();
  };
  auto timed = [&](const char* name) {
    return registry.GetHistogram(name).Count();
  };
  const std::uint64_t hjb = counter("core.hjb.sweeps");
  const std::uint64_t fpk = counter("core.fpk.sweeps");
  const std::uint64_t hjb_timed = timed("core.hjb.sweep_seconds");
  const std::uint64_t fpk_timed = timed("core.fpk.sweep_seconds");
  const std::uint64_t hjb_2d = counter("core.hjb_2d.sweeps");
  const std::uint64_t fpk_2d = counter("core.fpk_2d.sweeps");
  const std::uint64_t hjb_2d_timed = timed("core.hjb_2d.sweep_seconds");
  const std::uint64_t fpk_2d_timed = timed("core.fpk_2d.sweep_seconds");
  const std::uint64_t estimates = counter("core.mean_field.estimates");
  const std::uint64_t trajectories = counter("core.mean_field.trajectories");
  const std::uint64_t trajectories_timed =
      timed("core.mean_field.trajectory_seconds");
  auto eq = BestResponseLearner2D::Create(params).value().Solve();
  ASSERT_TRUE(eq.ok()) << eq.status();
  EXPECT_EQ(counter("core.hjb.sweeps"), hjb);
  EXPECT_EQ(counter("core.fpk.sweeps"), fpk);
  EXPECT_EQ(timed("core.hjb.sweep_seconds"), hjb_timed);
  EXPECT_EQ(timed("core.fpk.sweep_seconds"), fpk_timed);
  // One HJB sweep per iteration; one FPK sweep before the first and one
  // after each iteration that did not converge.
  const std::uint64_t fpk_sweeps = eq->iterations + (eq->converged ? 0 : 1);
  EXPECT_EQ(counter("core.hjb_2d.sweeps"), hjb_2d + eq->iterations);
  EXPECT_EQ(timed("core.hjb_2d.sweep_seconds"), hjb_2d_timed + eq->iterations);
  EXPECT_EQ(counter("core.fpk_2d.sweeps"), fpk_2d + fpk_sweeps);
  EXPECT_EQ(timed("core.fpk_2d.sweep_seconds"), fpk_2d_timed + fpk_sweeps);
  // The q-marginal is estimated as one lane: one trajectory of nt + 1
  // estimates per iteration plus the final refresh.
  const std::uint64_t refreshes = eq->iterations + 1;
  const std::uint64_t nodes = params.grid.num_time_steps + 1;
  EXPECT_EQ(counter("core.mean_field.estimates"),
            estimates + refreshes * nodes);
  EXPECT_EQ(counter("core.mean_field.trajectories"), trajectories + refreshes);
  EXPECT_EQ(timed("core.mean_field.trajectory_seconds"),
            trajectories_timed + refreshes);
#endif
}

TEST(ObsEquivalenceTest, SliceEstimateCountsOneEstimateAndNoTrajectory) {
#if !MFGCP_OBS_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (MFGCP_OBS=OFF)";
#else
  // MeanFieldEstimator is the one-lane view of the batch estimator; a
  // single-slice estimate is one estimate, never a trajectory.
  const MfgParams params = SmallParams();
  const auto estimator = MeanFieldEstimator::Create(params).value();
  const numerics::Density1D density =
      numerics::Density1D::Uniform(params.MakeQGrid().value()).value();
  const std::vector<double> policy(params.grid.num_q_nodes, 0.5);
  obs::Registry& registry = obs::Registry::Global();
  const std::uint64_t estimates =
      registry.GetCounter("core.mean_field.estimates").Value();
  const std::uint64_t trajectories =
      registry.GetCounter("core.mean_field.trajectories").Value();
  const std::uint64_t timed =
      registry.GetHistogram("core.mean_field.trajectory_seconds").Count();
  MeanFieldEstimator::Workspace workspace;
  MeanFieldQuantities out;
  ASSERT_TRUE(estimator.EstimateInto(density, policy, workspace, out).ok());
  EXPECT_EQ(registry.GetCounter("core.mean_field.estimates").Value(),
            estimates + 1);
  EXPECT_EQ(registry.GetCounter("core.mean_field.trajectories").Value(),
            trajectories);
  EXPECT_EQ(registry.GetHistogram("core.mean_field.trajectory_seconds").Count(),
            timed);
#endif
}

TEST(ObsEquivalenceTest, EstimatorCounterCountsEveryTimeNode) {
#if !MFGCP_OBS_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (MFGCP_OBS=OFF)";
#else
  // Alg. 2 estimates every time node once per iteration plus once for the
  // final refresh, whether the counter is bumped per slice or once per
  // trajectory, on the scalar (width 1) and the batched (width 8) path.
  constexpr std::size_t kContents = 8;
  obs::Registry& registry = obs::Registry::Global();
  for (std::size_t batch_width : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "batch_width " << batch_width);
    MfgCpOptions options = testing::FastOptions();
    options.batch_width = batch_width;
    auto framework = testing::MakeFramework(kContents, 1, &options);
    const std::uint64_t before =
        registry.GetCounter("core.mean_field.estimates").Value();
    EpochPlanBuffer buffer;
    ASSERT_TRUE(
        framework.PlanEpochInto(testing::MakeObservation(kContents), buffer)
            .ok());
    const std::size_t nt = options.base_params.grid.num_time_steps;
    std::uint64_t expected = 0;
    ASSERT_GT(buffer.num_active, 0u);
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      ASSERT_EQ(buffer.results[slot].attempts, 1u) << "slot " << slot;
      expected += (buffer.results[slot].equilibrium.iterations + 1) * (nt + 1);
    }
    EXPECT_EQ(registry.GetCounter("core.mean_field.estimates").Value() - before,
              expected);
  }
#endif
}

}  // namespace
}  // namespace mfg::core
