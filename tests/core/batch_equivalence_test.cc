// Bit-identity tests for the content-batched solver layer against its
// one-lane views (ARCHITECTURE.md "Batched solver layer"): the scalar
// HjbSolver1D, FpkSolver1D and BestResponseLearner run the same solvers at
// one lane, and solver_equivalence_test pins those views to golden values.
//
// The contract under test: lanes share no arithmetic, so every active
// lane's result is bitwise equal to its one-lane solve — at every batch
// width, for
// heterogeneous lanes (different content sizes mean different grid
// spacings and CFL substep counts per lane), for both FPK stepping
// schemes, and through the whole epoch pipeline (PlanEpochInto with
// batch_width 1 vs >1, catalogs that do not divide the block size, and
// parallelism 1 vs 2).

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/best_response.h"
#include "core/best_response_batch.h"
#include "core/fault_injection.h"
#include "core/fpk_batch.h"
#include "core/fpk_solver.h"
#include "core/hjb_batch.h"
#include "core/hjb_solver.h"
#include "core/mfg_cp.h"
#include "epoch_test_util.h"

namespace mfg::core {
namespace {

using ::mfg::core::testing::ExpectEquilibriumIdentical;
using ::mfg::core::testing::ExpectPlanBuffersIdentical;
using ::mfg::core::testing::FastOptions;
using ::mfg::core::testing::MakeFramework;
using ::mfg::core::testing::MakeObservation;

// Heterogeneous per-lane params on a shared grid shape (the epoch-path
// invariant): content size — and with it dx, the drift bound, and the CFL
// substep count — plus workload and learning controls all vary per lane.
MfgParams LaneParams(std::size_t lane) {
  static constexpr double kSizes[] = {100.0, 60.0, 140.0, 90.0,
                                      120.0, 75.0, 105.0, 130.0};
  MfgParams params = DefaultPaperParams();
  params.grid.num_q_nodes = 41;
  params.grid.num_time_steps = 50;
  params.content_id = lane;
  params.content_size = kSizes[lane % 8];
  params.popularity = 0.15 + 0.08 * static_cast<double>(lane);
  params.timeliness = 2.0 + 0.3 * static_cast<double>(lane);
  params.num_requests = 6.0 + 2.0 * static_cast<double>(lane);
  params.learning.max_iterations = 20;
  return params;
}

// Lane-varying synthetic mean field (same shape as the one in
// solver_equivalence_test, offset per lane).
std::vector<MeanFieldQuantities> LaneMeanField(std::size_t nt,
                                               std::size_t lane) {
  const double o = 0.1 * static_cast<double>(lane);
  std::vector<MeanFieldQuantities> mf(nt + 1);
  for (std::size_t n = 0; n <= nt; ++n) {
    const double s = static_cast<double>(n) / static_cast<double>(nt);
    mf[n].price = 5.0 - 2.0 * s + o;
    mf[n].mean_peer_remaining = 60.0 - 30.0 * s - 5.0 * o;
    mf[n].sharing_benefit = 1.5 * s + o;
    mf[n].mean_caching_rate = 0.4 + 0.2 * s;
    mf[n].sharer_fraction = 0.3 + 0.4 * s;
    mf[n].case3_fraction =
        (1.0 - mf[n].sharer_fraction) * (1.0 - mf[n].sharer_fraction);
    mf[n].delta_q = 10.0 * (1.0 - s) + o;
  }
  return mf;
}

class BatchSolverTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSolverTest, HjbBatchMatchesScalarBitwise) {
  const std::size_t lanes = GetParam();
  HjbBatchSolver batch;
  batch.Reset(lanes);
  std::vector<std::vector<MeanFieldQuantities>> mean_fields(lanes);
  std::vector<HjbSolution> solutions(lanes);
  std::vector<HjbBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const MfgParams params = LaneParams(l);
    ASSERT_TRUE(batch.BindLane(l, params).ok()) << "lane " << l;
    mean_fields[l] = LaneMeanField(params.grid.num_time_steps, l);
    io[l].mean_field = &mean_fields[l];
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  HjbBatchSolver::Workspace ws;
  batch.SolveInto(io, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(io[l].status.ok());
    auto scalar = HjbSolver1D::Create(LaneParams(l)).value();
    const HjbSolution expected = scalar.Solve(mean_fields[l]).value();
    EXPECT_TRUE(solutions[l].value == expected.value);
    EXPECT_TRUE(solutions[l].policy == expected.policy);
    EXPECT_EQ(solutions[l].dt, expected.dt);
  }
}

// The batched HJB checks divergence once per output node, in the same pass
// that computes the node's gradient and policy; a diverging lane must fail
// with the one-lane solve's exact error (same time node) and leave its
// neighbours bitwise untouched. The middle lane's mean-field price turns NaN at node 7.
TEST_P(BatchSolverTest, HjbBatchDivergentLaneMatchesScalarError) {
  const std::size_t lanes = GetParam();
  const std::size_t nan_lane = lanes / 2;
  constexpr std::size_t kNanNode = 7;
  HjbBatchSolver batch;
  batch.Reset(lanes);
  std::vector<std::vector<MeanFieldQuantities>> mean_fields(lanes);
  std::vector<HjbSolution> solutions(lanes);
  std::vector<HjbBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const MfgParams params = LaneParams(l);
    ASSERT_TRUE(batch.BindLane(l, params).ok()) << "lane " << l;
    mean_fields[l] = LaneMeanField(params.grid.num_time_steps, l);
    if (l == nan_lane) {
      mean_fields[l][kNanNode].price =
          std::numeric_limits<double>::quiet_NaN();
    }
    io[l].mean_field = &mean_fields[l];
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  HjbBatchSolver::Workspace ws;
  batch.SolveInto(io, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    auto scalar = HjbSolver1D::Create(LaneParams(l)).value();
    const auto expected = scalar.Solve(mean_fields[l]);
    if (l == nan_lane) {
      ASSERT_FALSE(expected.ok());
      EXPECT_EQ(expected.status().code(), common::StatusCode::kNumericalError);
      EXPECT_THAT(expected.status().message(),
                  ::testing::HasSubstr("time node " +
                                       std::to_string(kNanNode)));
      EXPECT_EQ(io[l].status.code(), expected.status().code());
      EXPECT_EQ(io[l].status.message(), expected.status().message());
      continue;
    }
    ASSERT_TRUE(io[l].status.ok()) << io[l].status;
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(solutions[l].value == expected->value);
    EXPECT_TRUE(solutions[l].policy == expected->policy);
  }
}

void CheckFpkBatch(std::size_t lanes, bool implicit) {
  FpkBatchSolver batch;
  batch.Reset(lanes);
  std::vector<numerics::Density1D> initials;
  std::vector<numerics::TimeField2D> policies(lanes);
  std::vector<FpkSolution> solutions(lanes);
  std::vector<FpkBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    MfgParams params = LaneParams(l);
    params.grid.implicit_fpk = implicit;
    ASSERT_TRUE(batch.BindLane(l, params).ok()) << "lane " << l;
    auto scalar = FpkSolver1D::Create(params).value();
    initials.push_back(scalar.MakeInitialDensity().value());
    const std::size_t nt = params.grid.num_time_steps;
    const std::size_t nq = params.grid.num_q_nodes;
    policies[l].Assign(nt + 1, nq, 0.0);
    for (std::size_t n = 0; n <= nt; ++n) {
      for (std::size_t i = 0; i < nq; ++i) {
        policies[l][n][i] =
            0.15 + 0.05 * static_cast<double>(l) +
            0.6 * static_cast<double>(i) / static_cast<double>(nq - 1) +
            0.1 * static_cast<double>(n) / static_cast<double>(nt);
      }
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    io[l].initial = &initials[l];
    io[l].policy = &policies[l];
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  FpkBatchSolver::Workspace ws;
  batch.SolveInto(io, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(io[l].status.ok());
    MfgParams params = LaneParams(l);
    params.grid.implicit_fpk = implicit;
    auto scalar = FpkSolver1D::Create(params).value();
    const FpkSolution expected =
        scalar.Solve(initials[l], policies[l]).value();
    ASSERT_EQ(solutions[l].densities.size(), expected.densities.size());
    for (std::size_t n = 0; n < expected.densities.size(); ++n) {
      EXPECT_EQ(solutions[l].densities[n].values(),
                expected.densities[n].values())
          << "time node " << n;
    }
  }
}

TEST_P(BatchSolverTest, FpkBatchExplicitMatchesScalarBitwise) {
  CheckFpkBatch(GetParam(), /*implicit=*/false);
}

TEST_P(BatchSolverTest, FpkBatchImplicitMatchesScalarBitwise) {
  CheckFpkBatch(GetParam(), /*implicit=*/true);
}

// The batched FPK checks divergence once per output node; a diverging lane
// must fail with the one-lane solve's exact error (same time node) and
// leave its neighbours bitwise untouched. Lane 1 starts from a NaN density (fails at node 0);
// lane 2's policy turns NaN at node 7 (fails mid-sweep).
TEST_P(BatchSolverTest, FpkBatchDivergentLaneMatchesScalarError) {
  const std::size_t lanes = GetParam();
  constexpr std::size_t kNanDensityLane = 1;
  constexpr std::size_t kNanPolicyLane = 2;
  constexpr std::size_t kNanPolicyNode = 7;
  FpkBatchSolver batch;
  batch.Reset(lanes);
  std::vector<MfgParams> params(lanes);
  std::vector<numerics::Density1D> initials;
  std::vector<numerics::TimeField2D> policies(lanes);
  std::vector<FpkSolution> solutions(lanes);
  std::vector<FpkBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    params[l] = LaneParams(l);
    ASSERT_TRUE(batch.BindLane(l, params[l]).ok()) << "lane " << l;
    auto scalar = FpkSolver1D::Create(params[l]).value();
    numerics::Density1D initial = scalar.MakeInitialDensity().value();
    policies[l].Assign(params[l].grid.num_time_steps + 1,
                       params[l].grid.num_q_nodes,
                       0.3 + 0.05 * static_cast<double>(l));
    const std::size_t mid = params[l].grid.num_q_nodes / 2;
    if (l == kNanDensityLane) {
      std::vector<double> values = initial.values();
      values[mid] = std::numeric_limits<double>::quiet_NaN();
      initial = numerics::Density1D::FromSamplesUnchecked(initial.grid(),
                                                          std::move(values))
                    .value();
    }
    if (l == kNanPolicyLane) {
      policies[l][kNanPolicyNode][mid] =
          std::numeric_limits<double>::quiet_NaN();
    }
    initials.push_back(std::move(initial));
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    io[l].initial = &initials[l];
    io[l].policy = &policies[l];
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  FpkBatchSolver::Workspace ws;
  batch.SolveInto(io, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    auto scalar = FpkSolver1D::Create(params[l]).value();
    const auto expected = scalar.Solve(initials[l], policies[l]);
    if (l == kNanDensityLane || l == kNanPolicyLane) {
      ASSERT_FALSE(expected.ok());
      EXPECT_EQ(expected.status().code(), common::StatusCode::kNumericalError);
      EXPECT_EQ(io[l].status.code(), expected.status().code());
      EXPECT_EQ(io[l].status.message(), expected.status().message());
      EXPECT_THAT(expected.status().message(),
                  ::testing::HasSubstr(
                      l == kNanDensityLane
                          ? "time node 0"
                          : "time node " + std::to_string(kNanPolicyNode)));
      continue;
    }
    ASSERT_TRUE(io[l].status.ok()) << io[l].status;
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(solutions[l].densities.size(), expected->densities.size());
    for (std::size_t n = 0; n < expected->densities.size(); ++n) {
      EXPECT_EQ(solutions[l].densities[n].values(),
                expected->densities[n].values())
          << "time node " << n;
    }
  }
}

TEST_P(BatchSolverTest, BestResponseBatchMatchesScalarBitwise) {
  const std::size_t lanes = GetParam();
  BatchBestResponseLearner batch;
  batch.Reset(lanes);
  std::vector<Equilibrium> equilibria(lanes);
  std::vector<BatchBestResponseLearner::LaneJob> jobs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    MfgParams params = LaneParams(l);
    // Lanes leave the lockstep loop at different iterations; with 8 lanes
    // the tightest ones also exhaust max_iterations unconverged, covering
    // the trailing-FPK exit path.
    params.learning.max_iterations = 3 + 2 * l;
    ASSERT_TRUE(batch.BindLane(l, params).ok()) << "lane " << l;
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);

  bool any_converged = false;
  bool any_unconverged = false;
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(jobs[l].status.ok());
    MfgParams params = LaneParams(l);
    params.learning.max_iterations = 3 + 2 * l;
    auto scalar = BestResponseLearner::Create(params).value();
    BestResponseLearner::Workspace sws;
    Equilibrium expected;
    ASSERT_TRUE(scalar.SolveInto(sws, expected).ok());
    ExpectEquilibriumIdentical(equilibria[l], expected);
    (expected.converged ? any_converged : any_unconverged) = true;
  }
  if (lanes >= 8) {
    // The scenario must mix both exits or it proves less than it claims.
    EXPECT_TRUE(any_converged);
    EXPECT_TRUE(any_unconverged);
  }
}

// A lane that fails inside the lockstep loop — an injected kHjbStep or
// kFpkStep fault on its content — must report the scalar learner's exact
// error, while its neighbours, leaving at different iterations (converged
// or exhausted), stay bitwise equal to their scalar solves: the batch-
// resident fields carry no cross-lane state.
TEST_P(BatchSolverTest, BestResponseBatchFailedLaneLeavesNeighboursBitwise) {
#if !MFGCP_FAULTS_ENABLED
  GTEST_SKIP() << "built with MFGCP_FAULTS=OFF; needs the injection seam";
#else
  const std::size_t lanes = GetParam();
  const std::size_t failed = lanes / 2;
  auto lane_params = [](std::size_t l) {
    MfgParams params = LaneParams(l);
    params.learning.max_iterations = 3 + 2 * l;
    return params;
  };
  for (const faults::FaultSite site :
       {faults::FaultSite::kHjbStep, faults::FaultSite::kFpkStep}) {
    SCOPED_TRACE(faults::FaultSiteName(site));
    faults::FaultPlan plan;
    faults::FaultSpec spec;
    spec.site = site;
    spec.epoch = 3;
    spec.content = 100 + failed;
    plan.Add(spec);
    faults::ScopedFaultInjection arm(plan);

    BatchBestResponseLearner batch;
    batch.Reset(lanes);
    std::vector<Equilibrium> equilibria(lanes);
    std::vector<BatchBestResponseLearner::LaneJob> jobs(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      ASSERT_TRUE(batch.BindLane(l, lane_params(l)).ok()) << "lane " << l;
      jobs[l].epoch = 3;
      jobs[l].content = 100 + l;
      jobs[l].active = true;
      jobs[l].out = &equilibria[l];
    }
    BatchBestResponseLearner::Workspace ws;
    batch.SolveInto(jobs, ws);

    for (std::size_t l = 0; l < lanes; ++l) {
      SCOPED_TRACE(::testing::Message() << "lane " << l);
      auto scalar = BestResponseLearner::Create(lane_params(l)).value();
      BestResponseLearner::Workspace sws;
      Equilibrium expected;
      // The scalar solve under the lane's ambient fault coordinates.
      faults::ScopedFaultScope scope(3, 100 + l, 0);
      const common::Status status = scalar.SolveInto(sws, expected);
      if (l == failed) {
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(jobs[l].status.code(), status.code());
        EXPECT_EQ(jobs[l].status.message(), status.message());
        continue;
      }
      ASSERT_TRUE(status.ok());
      ASSERT_TRUE(jobs[l].status.ok()) << jobs[l].status;
      ExpectEquilibriumIdentical(equilibria[l], expected);
    }
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchSolverTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           std::string name = "K";
                           name += std::to_string(info.param);
                           return name;
                         });

// Rebinding the same lanes to new params (the next epoch) must behave
// like freshly bound lanes — the epoch path rebinds in place.
TEST(BatchSolverTest, RebindingLanesMatchesFreshSolver) {
  const std::size_t lanes = 4;
  BatchBestResponseLearner batch;
  batch.Reset(lanes);
  std::vector<Equilibrium> equilibria(lanes);
  std::vector<BatchBestResponseLearner::LaneJob> jobs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(batch.BindLane(l, LaneParams(l)).ok());
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);

  // Epoch 2: rotate the params across lanes and reuse learner + outputs.
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(batch.BindLane(l, LaneParams(l + 1)).ok());
    jobs[l].epoch = 1;
    jobs[l].content = l + 1;
  }
  batch.SolveInto(jobs, ws);

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(jobs[l].status.ok());
    auto scalar = BestResponseLearner::Create(LaneParams(l + 1)).value();
    BestResponseLearner::Workspace sws;
    Equilibrium expected;
    ASSERT_TRUE(scalar.SolveInto(sws, expected).ok());
    ExpectEquilibriumIdentical(equilibria[l], expected);
  }
}

// An invalid lane fails at BindLane without poisoning its neighbors.
TEST(BatchSolverTest, InvalidLaneFailsBindWithoutAffectingOthers) {
  BatchBestResponseLearner batch;
  batch.Reset(2);
  MfgParams bad = LaneParams(1);
  bad.content_size = -1.0;
  ASSERT_TRUE(batch.BindLane(0, LaneParams(0)).ok());
  EXPECT_FALSE(batch.BindLane(1, bad).ok());
  ASSERT_TRUE(batch.BindLane(1, LaneParams(1)).ok());  // Rebind cleanly.

  std::vector<Equilibrium> equilibria(2);
  std::vector<BatchBestResponseLearner::LaneJob> jobs(2);
  for (std::size_t l = 0; l < 2; ++l) {
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
  BatchBestResponseLearner::Workspace ws;
  batch.SolveInto(jobs, ws);
  for (std::size_t l = 0; l < 2; ++l) {
    SCOPED_TRACE(::testing::Message() << "lane " << l);
    ASSERT_TRUE(jobs[l].status.ok());
    auto scalar = BestResponseLearner::Create(LaneParams(l)).value();
    BestResponseLearner::Workspace sws;
    Equilibrium expected;
    ASSERT_TRUE(scalar.SolveInto(sws, expected).ok());
    ExpectEquilibriumIdentical(equilibria[l], expected);
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline identity: PlanEpochInto at batch width 1 (one content per
// block) vs wider blocks.
// ---------------------------------------------------------------------------

// Runs `epochs` epochs with varying observations and returns a deep copy
// of every epoch's plan buffer.
std::vector<EpochPlanBuffer> RunEpochs(std::size_t num_contents,
                                       std::size_t parallelism,
                                       std::size_t batch_width,
                                       std::size_t epochs) {
  MfgCpOptions options = FastOptions(parallelism);
  options.batch_width = batch_width;
  auto framework = MakeFramework(num_contents, parallelism, &options);
  std::vector<EpochPlanBuffer> out;
  EpochPlanBuffer buffer;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    EpochObservation obs = MakeObservation(num_contents);
    obs.request_counts.assign(num_contents, 10 + 5 * epoch);
    obs.mean_timeliness.assign(num_contents, 2.5 + 0.25 * epoch);
    EXPECT_TRUE(framework.PlanEpochInto(obs, buffer).ok());
    out.push_back(buffer);
  }
  return out;
}

TEST(BatchEpochEquivalenceTest, BatchWidthsProduceIdenticalPlans) {
  // 11 active contents: does not divide any tested width, so the last
  // block is a remainder batch (3 lanes at width 8, 2 at width 3).
  const std::size_t k = 11;
  const std::vector<EpochPlanBuffer> scalar = RunEpochs(k, 1, 1, 2);
  for (std::size_t width : {std::size_t{2}, std::size_t{3}, std::size_t{8},
                            std::size_t{16}}) {
    SCOPED_TRACE(::testing::Message() << "batch_width " << width);
    const std::vector<EpochPlanBuffer> batched = RunEpochs(k, 1, width, 2);
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t epoch = 0; epoch < scalar.size(); ++epoch) {
      SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
      ExpectPlanBuffersIdentical(batched[epoch], scalar[epoch]);
    }
  }
}

TEST(BatchEpochEquivalenceTest, BatchedPlansIdenticalAcrossParallelism) {
  const std::size_t k = 11;
  const std::vector<EpochPlanBuffer> serial = RunEpochs(k, 1, 4, 2);
  for (std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "parallelism " << parallelism);
    const std::vector<EpochPlanBuffer> parallel =
        RunEpochs(k, parallelism, 4, 2);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t epoch = 0; epoch < serial.size(); ++epoch) {
      SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
      ExpectPlanBuffersIdentical(parallel[epoch], serial[epoch]);
    }
  }
}

TEST(BatchEpochEquivalenceTest, UnconvergedSlotsShipIdenticalIterates) {
  // Tight iteration cap with the nonconvergence retry off: the batch
  // path's trailing-FPK semantics for exhausted lanes must reproduce the
  // scalar slot bit-for-bit (nothing is smoothed over by a retry).
  MfgCpOptions scalar_options = FastOptions(1);
  scalar_options.base_params.learning.max_iterations = 3;
  scalar_options.recovery.retry_on_nonconvergence = false;
  scalar_options.batch_width = 1;
  MfgCpOptions batch_options = scalar_options;
  batch_options.batch_width = 8;

  auto scalar_framework = MakeFramework(6, 1, &scalar_options);
  auto batch_framework = MakeFramework(6, 1, &batch_options);
  const EpochObservation obs = MakeObservation(6);
  EpochPlanBuffer scalar_buffer;
  EpochPlanBuffer batch_buffer;
  ASSERT_TRUE(scalar_framework.PlanEpochInto(obs, scalar_buffer).ok());
  ASSERT_TRUE(batch_framework.PlanEpochInto(obs, batch_buffer).ok());
  bool any_unconverged = false;
  for (std::size_t slot = 0; slot < scalar_buffer.num_active; ++slot) {
    if (!scalar_buffer.results[slot].equilibrium.converged) {
      any_unconverged = true;
    }
  }
  EXPECT_TRUE(any_unconverged);
  ExpectPlanBuffersIdentical(batch_buffer, scalar_buffer);
}

TEST(BatchEpochEquivalenceTest, RejectsZeroBatchWidth) {
  MfgCpOptions options = FastOptions(1);
  options.batch_width = 0;
  auto catalog = content::Catalog::CreateUniform(3, 100.0).value();
  auto popularity = content::PopularityModel::CreateZipf(3, 0.8).value();
  auto timeliness =
      content::TimelinessModel::Create(content::TimelinessParams()).value();
  EXPECT_FALSE(
      MfgCpFramework::Create(options, catalog, popularity, timeliness).ok());
}

}  // namespace
}  // namespace mfg::core
