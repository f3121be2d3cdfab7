// Request-replay throughput microbenchmarks (BENCH_requests.json): the
// discrete-event engine replaying a pre-generated 1M-request stream
// through each request-level cache policy, plus the replanning replay
// that runs MfgCpFramework::PlanEpochInto at every epoch boundary.
//
// Counters:
//   items_per_second    requests replayed per second (the >=1M req/s
//                       acceptance line of ROADMAP.md's request-sim item).
//   allocs_per_replay   heap allocations per timed replay after the warmup
//                       replay — must be exactly 0 (compare_bench.py
//                       compares it exactly, like allocs_per_iter).
//   hit_ratio           informational; pins the replay to a fixed workload.
//   replans             epoch boundaries crossed per replay (replan bench).
//
// Record a fresh baseline from a Release tree (see bench/README.md):
//   ./build-release/bench/bench_request_replay
//     --benchmark_out=BENCH_requests.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "baselines/request_cache.h"
#include "common/logging.h"
#include "obs/alloc_probe.h"
#include "sim/gauntlet.h"
#include "sim/request_engine.h"
#include "sim/request_stream.h"

namespace mfg {
namespace {

constexpr std::size_t kContents = 64;
constexpr std::size_t kCapacity = 16;
constexpr std::size_t kRequests = 1 << 20;

const sim::RequestStream& SharedStream() {
  static const sim::RequestStream stream = [] {
    sim::RequestStreamOptions options;
    options.num_contents = kContents;
    options.num_requests = kRequests;
    options.zipf_iota = 0.8;
    options.seed = 42;
    auto generated = sim::GenerateRequestStream(options);
    MFG_CHECK(generated.ok()) << generated.status();
    return std::move(generated).value();
  }();
  return stream;
}

sim::RequestEngineOptions EngineOptions() {
  sim::RequestEngineOptions options;
  options.num_contents = kContents;
  options.cache_capacity = kCapacity;
  return options;
}

// One warmed replay per iteration through `policy`; the policy and the
// workspace size themselves during the untimed warmup replay, after which
// the loop must not touch the allocator.
void ReplayLoop(benchmark::State& state, baselines::RequestCachePolicy& policy,
                std::span<const double> prior) {
  const sim::RequestStream& stream = SharedStream();
  const sim::RequestEngine engine(EngineOptions());
  sim::RequestEngine::Workspace workspace;
  sim::RequestReplayStats stats;
  MFG_CHECK(policy.Reset(kContents, kCapacity, prior).ok());
  MFG_CHECK(engine.ReplayInto(stream, policy, nullptr, workspace, stats).ok());

  const std::size_t allocs_before = obs::ThreadAllocationCount();
  std::size_t replays = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.ReplayInto(stream, policy, nullptr, workspace, stats));
    ++replays;
  }
  const std::size_t allocs = obs::ThreadAllocationCount() - allocs_before;

  state.SetItemsProcessed(static_cast<std::int64_t>(replays * stream.size()));
  state.counters["allocs_per_replay"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.counters["hit_ratio"] = stats.HitRatio();
}

void BM_ReplayLru(benchmark::State& state) {
  baselines::LruCache policy;
  ReplayLoop(state, policy, {});
}
BENCHMARK(BM_ReplayLru)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReplayLfu(benchmark::State& state) {
  baselines::LfuCache policy;
  ReplayLoop(state, policy, {});
}
BENCHMARK(BM_ReplayLfu)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReplayPopularityGreedy(benchmark::State& state) {
  baselines::PopularityGreedyCache policy;
  ReplayLoop(state, policy, {});
}
BENCHMARK(BM_ReplayPopularityGreedy)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ReplayStaticSet(benchmark::State& state) {
  std::vector<double> prior(kContents);
  for (std::size_t k = 0; k < kContents; ++k) {
    prior[k] = 1.0 / static_cast<double>(k + 1);
  }
  baselines::StaticSetCache policy;
  ReplayLoop(state, policy, prior);
}
BENCHMARK(BM_ReplayStaticSet)->Unit(benchmark::kMillisecond)->UseRealTime();

// The replanning replay: a StaticSetCache re-placed by PlanEpochInto at
// every epoch boundary (16 boundaries per replay). Worker-thread
// allocations are accounted via the epoch runtime's per-worker probes, so
// allocs_per_replay covers the planner's zero-allocation contract too.
void BM_ReplayMfgReplan(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  const sim::RequestStream& stream = SharedStream();

  sim::MfgPlanReplanHook::Options hook_options;
  hook_options.planner.base_params.grid.num_q_nodes = 41;
  hook_options.planner.base_params.grid.num_time_steps = 50;
  hook_options.planner.base_params.learning.max_iterations = 25;
  hook_options.planner.parallelism = workers;
  auto hook = sim::MfgPlanReplanHook::Create(hook_options, kContents,
                                             EngineOptions().content_size_mb,
                                             0.8);
  MFG_CHECK(hook.ok()) << hook.status();

  sim::RequestEngineOptions engine_options = EngineOptions();
  // 8 epoch boundaries across the stream's horizon: enough replans to
  // exercise the seam while the 1M-request replay still dominates the
  // planning cost, keeping this row above the 1M requests/s line.
  engine_options.epoch_period = stream.arrival_time.back() / 8.0;
  const sim::RequestEngine engine(engine_options);

  std::vector<double> prior(kContents);
  for (std::size_t k = 0; k < kContents; ++k) {
    prior[k] = 1.0 / static_cast<double>(k + 1);
  }
  baselines::StaticSetCache policy("MFG-CP");
  sim::RequestEngine::Workspace workspace;
  sim::RequestReplayStats stats;
  MFG_CHECK(policy.Reset(kContents, kCapacity, prior).ok());
  // Two warmup replays: the first sizes every buffer, the second proves
  // the warmed path before the probe arms.
  MFG_CHECK(
      engine.ReplayInto(stream, policy, hook->get(), workspace, stats).ok());
  MFG_CHECK(
      engine.ReplayInto(stream, policy, hook->get(), workspace, stats).ok());

  const std::size_t allocs_before = obs::ThreadAllocationCount();
  std::size_t replays = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.ReplayInto(stream, policy, hook->get(), workspace, stats));
    ++replays;
  }
  std::size_t allocs = obs::ThreadAllocationCount() - allocs_before;
  const core::EpochRuntime& runtime = hook.value()->framework().epoch_runtime();
  for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
    allocs += runtime.worker(w).allocations * replays;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(replays * stream.size()));
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["allocs_per_replay"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.counters["hit_ratio"] = stats.HitRatio();
  state.counters["replans"] = static_cast<double>(stats.replans);
}
BENCHMARK(BM_ReplayMfgReplan)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::GoogleBenchmarkMain(argc, argv);
}
