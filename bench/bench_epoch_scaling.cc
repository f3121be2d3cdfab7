// Epoch-throughput scaling of the persistent worker pool: one full Alg. 1
// planning epoch (PlanEpochInto) over a fixed 64-content Zipf catalog,
// swept over workers = 1/2/4/8. The workload is deterministic (no RNG),
// so every row solves the identical set of equilibria and the only
// variable is the pool width.
//
// Two counters back the zero-allocation contract of the warmed pool:
//   allocs_per_epoch  — global operator-new calls per timed epoch (this
//                       binary links mfgcp_obs_alloc_hooks), averaged
//                       over the timed iterations; must be 0 for every
//                       worker count after the two untimed warmup epochs.
//   max_worker_allocs — the worst per-worker allocation delta of the last
//                       timed epoch (from EpochRuntime's thread-local
//                       probe); must also be 0.
//
// Times are wall-clock (UseRealTime): with a pooled epoch the calling
// thread mostly waits, so CPU time of the main thread would be
// meaningless. Export machine-readable results with
//   bench_epoch_scaling --benchmark_out=BENCH_epoch.json
//                       --benchmark_out_format=json
// (see EXPERIMENTS.md for the recorded sweep and the hardware caveat:
// the workers>1 rows only show speedup when the machine actually has
// that many cores).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "common/logging.h"
#include "core/mfg_cp.h"
#include "obs/alloc_probe.h"
#include "obs/flight_recorder.h"
#include "obs/stream.h"

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

// The warmed epoch loop with the MetricsStreamer sampling the registry at
// 50 ms in the background — the acceptance check that streaming never
// perturbs the solver path. Allocations are counted with the thread-local
// probe (calling thread + per-worker deltas), so the sampler thread's own
// row-building allocations are attributed to the sampler, not the
// workers: solver_allocs_per_epoch must stay 0 while the stream runs.
void BM_PlanEpochInto64Streaming(benchmark::State& state) {
#if !MFGCP_OBS_ENABLED
  state.SkipWithError("built with -DMFGCP_OBS=OFF");
  return;
#else
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
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());

  char stream_path[256];
  std::snprintf(stream_path, sizeof(stream_path),
                "bench_epoch_scaling_stream_%zu.jsonl", workers);
  obs::StreamOptions stream_options;
  stream_options.jsonl_path = stream_path;
  stream_options.period = std::chrono::milliseconds(50);
  MFG_CHECK(obs::MetricsStreamer::Global().Start(stream_options).ok());

  const std::size_t thread_allocs_before = obs::ThreadAllocationCount();
  std::size_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(framework.PlanEpochInto(obs, buffer));
    ++iterations;
  }
  const std::size_t thread_allocs =
      obs::ThreadAllocationCount() - thread_allocs_before;

  // Per-worker deltas of the last epoch (thread-local, so unpolluted by
  // the sampler); the calling thread's delta covers the whole timed loop.
  std::size_t worker_allocs = 0;
  const core::EpochRuntime& runtime = framework.epoch_runtime();
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    worker_allocs += runtime.worker(w).allocations;
  }
  obs::MetricsStreamer& streamer = obs::MetricsStreamer::Global();
  const std::uint64_t windows = streamer.windows_written();
  streamer.Stop();
  std::remove(stream_path);

  state.counters["workers"] = static_cast<double>(workers);
  state.counters["solver_allocs_per_epoch"] = benchmark::Counter(
      static_cast<double>(thread_allocs + worker_allocs * iterations),
      benchmark::Counter::kAvgIterations);
  state.counters["stream_windows"] = static_cast<double>(windows);
#endif
}
BENCHMARK(BM_PlanEpochInto64Streaming)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The warmed epoch loop with the flight recorder journaling every solve
// event — the acceptance check that the record path is allocation-free
// (rings register during the untimed warmup epochs; after that a record
// is plain stores into the thread's own ring). No dump directory is
// configured and no probe runs, so this measures pure journal overhead
// against BM_PlanEpochInto64; solver_allocs_per_epoch must stay 0 with
// recording ON.
void BM_PlanEpochInto64Flight(benchmark::State& state) {
#if !MFGCP_OBS_ENABLED
  state.SkipWithError("built with -DMFGCP_OBS=OFF");
  return;
#else
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
  obs::FlightJournal::Get().SetEnabled(true);
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());
  MFG_CHECK(framework.PlanEpochInto(obs, buffer).ok());

  const std::size_t thread_allocs_before = obs::ThreadAllocationCount();
  std::size_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(framework.PlanEpochInto(obs, buffer));
    ++iterations;
  }
  const std::size_t thread_allocs =
      obs::ThreadAllocationCount() - thread_allocs_before;

  std::size_t worker_allocs = 0;
  const core::EpochRuntime& runtime = framework.epoch_runtime();
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    worker_allocs += runtime.worker(w).allocations;
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["flight_rings"] =
      static_cast<double>(obs::FlightJournal::Get().num_rings());
  state.counters["solver_allocs_per_epoch"] = benchmark::Counter(
      static_cast<double>(thread_allocs + worker_allocs * iterations),
      benchmark::Counter::kAvgIterations);
#endif
}
BENCHMARK(BM_PlanEpochInto64Flight)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The allocating convenience wrapper (fresh EpochPlan + MfgPolicy objects
// per call) at workers=1, as the baseline the *Into path is measured
// against.
void BM_PlanEpoch64Convenience(benchmark::State& state) {
  auto catalog = content::Catalog::CreateUniform(kContents, 100.0).value();
  auto popularity =
      content::PopularityModel::CreateZipf(kContents, 0.8).value();
  auto timeliness =
      content::TimelinessModel::Create(content::TimelinessParams()).value();
  auto framework = core::MfgCpFramework::Create(ScalingOptions(1), catalog,
                                                popularity, timeliness)
                       .value();
  const core::EpochObservation obs = ScalingObservation();
  MFG_CHECK(framework.PlanEpoch(obs).ok());  // Warmup.
  const std::size_t allocs_before = obs::AllocationCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(framework.PlanEpoch(obs).value());
  }
  const std::size_t allocs_after = obs::AllocationCount();
  state.counters["allocs_per_epoch"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PlanEpoch64Convenience)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::GoogleBenchmarkMain(argc, argv);
}
