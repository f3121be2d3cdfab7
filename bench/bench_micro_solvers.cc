// Google-benchmark microbenchmarks of the numerical kernels: one backward
// HJB sweep, one forward FPK sweep, the mean-field estimator, a full
// best-response solve, an end-to-end 64-content PlanEpoch, and one
// simulator slot. These are the budgets behind Table II's "MFG-CP
// computation time does not increase with M".
//
// Each kernel benchmark reports an `allocs_per_iter` counter backed by the
// obs allocation probe (obs/alloc_probe.h); this binary links the
// mfgcp_obs_alloc_hooks operator-new overrides that feed it. The *Into
// variants reuse a Workspace plus the previous output's storage and must
// report 0 after their warm-up call — that is the zero-allocation contract
// of the flat solver kernels, and it holds with observability compiled in
// (the MFG_OBS_* record paths never allocate once their function-local
// registry handles exist, which the warm-up call guarantees). Export
// machine-readable results with the one command line
//   bench_micro_solvers --benchmark_out=BENCH_solvers.json
//       --benchmark_out_format=json
// (see EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "baselines/random_replacement.h"
#include "common/logging.h"
#include "core/best_response.h"
#include "core/best_response_batch.h"
#include "core/fpk_batch.h"
#include "core/fpk_solver.h"
#include "core/hjb_batch.h"
#include "core/hjb_solver.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_cp.h"
#include "obs/alloc_probe.h"
#include "sim/simulator.h"

namespace mfg {
namespace {

// Runs the benchmark loop while counting heap allocations and attaches
// the per-iteration average as a counter. `body` is invoked once per
// iteration after an untimed warm-up call has sized all buffers.
template <typename Body>
void LoopCountingAllocs(benchmark::State& state, Body&& body) {
  const std::size_t before = obs::AllocationCount();
  for (auto _ : state) {
    body();
  }
  const std::size_t after = obs::AllocationCount();
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(after - before), benchmark::Counter::kAvgIterations);
}

core::MfgParams Params(std::size_t q_nodes, std::size_t time_steps) {
  core::MfgParams params = core::DefaultPaperParams();
  params.grid.num_q_nodes = q_nodes;
  params.grid.num_time_steps = time_steps;
  return params;
}

std::vector<core::MeanFieldQuantities> ConstantMeanField(std::size_t nt) {
  std::vector<core::MeanFieldQuantities> mf(nt + 1);
  for (auto& q : mf) {
    q.price = 5.0;
    q.mean_peer_remaining = 50.0;
  }
  return mf;
}

void BM_HjbSolve(benchmark::State& state) {
  core::MfgParams params =
      Params(static_cast<std::size_t>(state.range(0)), 100);
  auto solver = core::HjbSolver1D::Create(params).value();
  auto mf = ConstantMeanField(100);
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(solver.Solve(mf).value());
  });
}
BENCHMARK(BM_HjbSolve)->Arg(41)->Arg(81)->Arg(161);

// Steady-state variant: workspace and solution storage persist across
// iterations, so after the untimed warm-up call every sweep runs with
// allocs_per_iter == 0.
void BM_HjbSolveInto(benchmark::State& state) {
  core::MfgParams params =
      Params(static_cast<std::size_t>(state.range(0)), 100);
  auto solver = core::HjbSolver1D::Create(params).value();
  auto mf = ConstantMeanField(100);
  core::HjbSolver1D::Workspace workspace;
  core::HjbSolution solution;
  MFG_CHECK(solver.SolveInto(mf, workspace, solution).ok());  // Warm-up.
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(solver.SolveInto(mf, workspace, solution));
  });
}
BENCHMARK(BM_HjbSolveInto)->Arg(41)->Arg(81)->Arg(161);

// Content-batched HJB sweep: K lanes of the BM_HjbSolveInto/161 problem
// solved as one SoA batch. items_per_second counts *contents*, so the
// per-content speedup over the scalar sweep is
//   items_per_second(BM_HjbBatchSolveInto/K) * time(BM_HjbSolveInto/161).
// The `batch_width` counter keys the series in compare_bench.py.
void BM_HjbBatchSolveInto(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  core::MfgParams params = Params(161, 100);
  core::HjbBatchSolver solver;
  solver.Reset(lanes);
  auto mf = ConstantMeanField(100);
  std::vector<core::HjbSolution> solutions(lanes);
  std::vector<core::HjbBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    MFG_CHECK(solver.BindLane(l, params).ok());
    io[l].mean_field = &mf;
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  core::HjbBatchSolver::Workspace workspace;
  solver.SolveInto(io, workspace);  // Warm-up.
  MFG_CHECK(io[0].status.ok());
  LoopCountingAllocs(state, [&] {
    solver.SolveInto(io, workspace);
    benchmark::DoNotOptimize(solutions.data());
  });
  state.counters["batch_width"] = static_cast<double>(lanes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lanes));
}
BENCHMARK(BM_HjbBatchSolveInto)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FpkSolve(benchmark::State& state) {
  core::MfgParams params =
      Params(static_cast<std::size_t>(state.range(0)), 100);
  auto solver = core::FpkSolver1D::Create(params).value();
  auto initial = solver.MakeInitialDensity().value();
  std::vector<std::vector<double>> policy(
      101, std::vector<double>(params.grid.num_q_nodes, 0.5));
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(solver.Solve(initial, policy).value());
  });
}
BENCHMARK(BM_FpkSolve)->Arg(41)->Arg(81)->Arg(161);

void BM_FpkSolveInto(benchmark::State& state) {
  core::MfgParams params =
      Params(static_cast<std::size_t>(state.range(0)), 100);
  auto solver = core::FpkSolver1D::Create(params).value();
  auto initial = solver.MakeInitialDensity().value();
  numerics::TimeField2D policy(101, params.grid.num_q_nodes, 0.5);
  core::FpkSolver1D::Workspace workspace;
  core::FpkSolution solution;
  MFG_CHECK(
      solver.SolveInto(initial, policy, workspace, solution).ok());
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(
        solver.SolveInto(initial, policy, workspace, solution));
  });
}
BENCHMARK(BM_FpkSolveInto)->Arg(41)->Arg(81)->Arg(161);

// Content-batched forward sweep, mirroring BM_HjbBatchSolveInto (see the
// per-content speedup formula there).
void BM_FpkBatchSolveInto(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  core::MfgParams params = Params(161, 100);
  core::FpkBatchSolver solver;
  solver.Reset(lanes);
  auto scalar = core::FpkSolver1D::Create(params).value();
  auto initial = scalar.MakeInitialDensity().value();
  numerics::TimeField2D policy(101, params.grid.num_q_nodes, 0.5);
  std::vector<core::FpkSolution> solutions(lanes);
  std::vector<core::FpkBatchSolver::LaneIo> io(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    MFG_CHECK(solver.BindLane(l, params).ok());
    io[l].initial = &initial;
    io[l].policy = &policy;
    io[l].solution = &solutions[l];
    io[l].active = true;
  }
  core::FpkBatchSolver::Workspace workspace;
  solver.SolveInto(io, workspace);  // Warm-up.
  MFG_CHECK(io[0].status.ok());
  LoopCountingAllocs(state, [&] {
    solver.SolveInto(io, workspace);
    benchmark::DoNotOptimize(solutions.data());
  });
  state.counters["batch_width"] = static_cast<double>(lanes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lanes));
}
BENCHMARK(BM_FpkBatchSolveInto)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MeanFieldEstimate(benchmark::State& state) {
  core::MfgParams params =
      Params(static_cast<std::size_t>(state.range(0)), 100);
  auto estimator = core::MeanFieldEstimator::Create(params).value();
  auto fpk = core::FpkSolver1D::Create(params).value();
  auto density = fpk.MakeInitialDensity().value();
  std::vector<double> policy(params.grid.num_q_nodes, 0.5);
  core::MeanFieldEstimator::Workspace workspace;
  core::MeanFieldQuantities out;
  MFG_CHECK(estimator.EstimateInto(density, policy, workspace, out).ok());
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(
        estimator.EstimateInto(density, policy, workspace, out));
  });
}
BENCHMARK(BM_MeanFieldEstimate)->Arg(101)->Arg(401);

void BM_BestResponseSolve(benchmark::State& state) {
  core::MfgParams params =
      Params(static_cast<std::size_t>(state.range(0)), 100);
  params.learning.max_iterations = 40;
  auto learner = core::BestResponseLearner::Create(params).value();
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(learner.Solve().value());
  });
}
BENCHMARK(BM_BestResponseSolve)->Arg(41)->Arg(81)->Unit(benchmark::kMillisecond);

// One Alg. 2 block solve on perfbench's planning grid (41 × 50, 25
// iterations): K heterogeneous lanes (content sizes 60–140 MB, so dx, CFL
// substep counts and iteration counts differ per lane) through the
// batch-resident BatchBestResponseLearner. items_per_second counts
// contents; `allocs_per_iter` must be 0 after the warm-up solve.
void BM_BestResponseBatchSolveInto(benchmark::State& state) {
  static constexpr double kSizes[] = {100.0, 60.0, 140.0, 90.0,
                                      120.0, 75.0, 105.0, 130.0};
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  core::BatchBestResponseLearner learner;
  learner.Reset(lanes);
  std::vector<core::Equilibrium> equilibria(lanes);
  std::vector<core::BatchBestResponseLearner::LaneJob> jobs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    core::MfgParams params = Params(41, 50);
    params.learning.max_iterations = 25;
    params.content_id = l;
    params.content_size = kSizes[l % 8];
    params.popularity = 0.15 + 0.08 * static_cast<double>(l);
    MFG_CHECK(learner.BindLane(l, params).ok());
    jobs[l].content = l;
    jobs[l].active = true;
    jobs[l].out = &equilibria[l];
  }
  core::BatchBestResponseLearner::Workspace workspace;
  learner.SolveInto(jobs, workspace);  // Warm-up.
  for (const auto& job : jobs) MFG_CHECK(job.status.ok());
  LoopCountingAllocs(state, [&] {
    learner.SolveInto(jobs, workspace);
    benchmark::DoNotOptimize(equilibria.data());
  });
  state.counters["batch_width"] = static_cast<double>(lanes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lanes));
}
BENCHMARK(BM_BestResponseBatchSolveInto)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// End-to-end Alg. 1 epoch over a 64-content Zipf catalog: the per-epoch
// planning cost an operator actually pays. Runs serial so the time is one
// core's worth of the K' equilibrium solves. The argument is the SoA
// batch width (1 = one content per block).
void BM_PlanEpoch64(benchmark::State& state) {
  constexpr std::size_t kContents = 64;
  core::MfgCpOptions options;
  options.base_params.grid.num_q_nodes = 41;
  options.base_params.grid.num_time_steps = 50;
  options.base_params.learning.max_iterations = 25;
  options.batch_width = static_cast<std::size_t>(state.range(0));
  auto catalog = content::Catalog::CreateUniform(kContents, 100.0).value();
  auto popularity =
      content::PopularityModel::CreateZipf(kContents, 0.8).value();
  auto timeliness =
      content::TimelinessModel::Create(content::TimelinessParams()).value();
  auto framework =
      core::MfgCpFramework::Create(options, catalog, popularity, timeliness)
          .value();
  core::EpochObservation obs;
  obs.request_counts.assign(kContents, 10);
  obs.mean_timeliness.assign(kContents, 2.5);
  obs.mean_remaining.assign(kContents, 70.0);
  LoopCountingAllocs(state, [&] {
    benchmark::DoNotOptimize(framework.PlanEpoch(obs).value());
  });
  state.counters["batch_width"] =
      static_cast<double>(options.batch_width);
}
BENCHMARK(BM_PlanEpoch64)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// One full simulated slot's cost per EDP count: the per-epoch work that
// grows with M for decision-per-EDP schemes.
void BM_SimulatorRun(benchmark::State& state) {
  sim::SimulatorOptions options;
  options.num_edps = static_cast<std::size_t>(state.range(0));
  options.num_requesters = 3 * options.num_edps;
  options.num_contents = 10;
  options.num_slots = 10;
  auto simulator = sim::Simulator::Create(options).value();
  auto scheme = sim::UniformScheme(
      "RR", baselines::MakeRandomReplacement(), options.num_contents);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.Run(scheme).value());
  }
}
BENCHMARK(BM_SimulatorRun)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::GoogleBenchmarkMain(argc, argv);
}
