// Epoch-throughput scaling of the persistent worker pool: one full Alg. 1
// planning epoch (PlanEpochInto) over a fixed 64-content Zipf catalog,
// swept over workers = 1/2/4/8 and, at one worker, over batch widths
// 1/2/4/8/16. The workload is deterministic (no RNG), so every row solves
// the identical set of equilibria and the only variable is the swept
// knob. A development tool (EXPERIMENTS.md "Epoch-scaling benchmarks"):
// perfbench holds the end-to-end record and tests/core/epoch_alloc_test.cc
// holds the zero-allocation contract.
//
// Two counters report allocations of the warmed pool:
//   allocs_per_epoch  — global operator-new calls per timed epoch (this
//                       binary links mfgcp_obs_alloc_hooks), averaged
//                       over the timed iterations, after the two untimed
//                       warmup epochs.
//   max_worker_allocs — the worst per-worker allocation delta of the last
//                       timed epoch (from EpochRuntime's thread-local
//                       probe).
//
// Times are wall-clock (UseRealTime): with a pooled epoch the calling
// thread mostly waits, so CPU time of the main thread would be
// meaningless. The workers>1 rows only show speedup when the machine
// actually has that many cores.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/logging.h"
#include "core/mfg_cp.h"
#include "obs/alloc_probe.h"

namespace mfg {
namespace {

constexpr std::size_t kContents = 64;

core::MfgCpOptions ScalingOptions(std::size_t workers) {
  core::MfgCpOptions options;
  options.base_params.grid.num_q_nodes = 41;
  options.base_params.grid.num_time_steps = 50;
  options.base_params.learning.max_iterations = 25;
  options.parallelism = workers;
  // Workers claim SoA blocks of this many contents (the default width of
  // the batched solver layer); BM_PlanEpochInto64BatchWidth sweeps it.
  options.batch_width = 8;
  return options;
}

core::EpochObservation ScalingObservation() {
  core::EpochObservation obs;
  obs.request_counts.assign(kContents, 10);
  obs.mean_timeliness.assign(kContents, 2.5);
  obs.mean_remaining.assign(kContents, 70.0);
  return obs;
}

// Warmed PlanEpochInto per pool width: the steady-state epoch cost.
void BM_PlanEpochInto64(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  auto catalog = content::Catalog::CreateUniform(kContents, 100.0).value();
  auto popularity =
      content::PopularityModel::CreateZipf(kContents, 0.8).value();
  auto timeliness =
      content::TimelinessModel::Create(content::TimelinessParams()).value();
  auto framework = core::MfgCpFramework::Create(ScalingOptions(workers),
                                                catalog, popularity,
                                                timeliness)
                       .value();
  const core::EpochObservation obs = ScalingObservation();
  core::EpochPlanBuffer buffer;
  // Warmup epoch 1 runs the round-robin partition so every worker sizes
  // its learner/workspace; epoch 2 confirms the steady state before
  // timing starts.
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());

  const std::size_t allocs_before = obs::AllocationCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(framework.PlanEpochInto(obs, buffer));
  }
  const std::size_t allocs_after = obs::AllocationCount();

  std::size_t max_worker_allocs = 0;
  const core::EpochRuntime& runtime = framework.epoch_runtime();
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    max_worker_allocs =
        std::max(max_worker_allocs, runtime.worker(w).allocations);
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["batch_width"] =
      static_cast<double>(framework.options().batch_width);
  state.counters["allocs_per_epoch"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before),
      benchmark::Counter::kAvgIterations);
  state.counters["max_worker_allocs"] =
      static_cast<double>(max_worker_allocs);
}
BENCHMARK(BM_PlanEpochInto64)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Batch-width sweep at workers=1: how much of the epoch cost the SoA
// batch path recovers on one core. Width 1 solves one content per block.
void BM_PlanEpochInto64BatchWidth(benchmark::State& state) {
  core::MfgCpOptions options = ScalingOptions(1);
  options.batch_width = static_cast<std::size_t>(state.range(0));
  auto catalog = content::Catalog::CreateUniform(kContents, 100.0).value();
  auto popularity =
      content::PopularityModel::CreateZipf(kContents, 0.8).value();
  auto timeliness =
      content::TimelinessModel::Create(content::TimelinessParams()).value();
  auto framework = core::MfgCpFramework::Create(options, catalog,
                                                popularity, timeliness)
                       .value();
  const core::EpochObservation obs = ScalingObservation();
  core::EpochPlanBuffer buffer;
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());

  const std::size_t allocs_before = obs::AllocationCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(framework.PlanEpochInto(obs, buffer));
  }
  const std::size_t allocs_after = obs::AllocationCount();
  state.counters["batch_width"] =
      static_cast<double>(options.batch_width);
  state.counters["allocs_per_epoch"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PlanEpochInto64BatchWidth)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::GoogleBenchmarkMain(argc, argv);
}
