// Online serving runtime soak (EXPERIMENTS.md "Serving soak"): drives
// serve::ServeLoop over a generated request stream — sim-time decoupled
// from wall clock by the timescale knob — and prints the serving
// headline metrics. With bench_json= it hand-writes a Google-Benchmark
// compatible JSON export so scripts/compare_bench.py can gate the run
// against the checked-in BENCH_serve.json baseline, including the
// allocs_per_tick=0 steady-state contract (this binary links
// mfgcp_obs_alloc_hooks, so the counter measures real operator-new
// calls).
//
// Keys (on top of the shared observability keys of bench_common.h):
//   requests=<n>         stream length (default 200000)
//   num_contents=<k>     catalog size (default 20)
//   rate=<r>             arrival rate per unit sim-time (default 1000)
//   zipf=<iota>          Zipf skew of the stream + planner prior (0.8)
//   seed=<s>             stream seed (default 42)
//   capacity=<c>         cache capacity in contents (default 6)
//   epoch_period=<t>     sim-time between replans (default 25)
//   parallelism=<w> batch_width=<b> grid=<nq> time_steps=<nt> iters=<n>
//                        planner knobs (defaults 1 / 8 / 41 / 50 / 25)
//   timescale=<x>|inf    sim-time units per wall-clock second; inf =
//                        unpaced batch-equivalent mode (default inf)
//   tick_ms=<ms>         wall-clock tick period when paced (default 10)
//   plan_deadline_ms=<ms>  async planning deadline; 0 = synchronous
//                        boundaries (default 0)
//   plan_delay_ms=<ms>   synthetic planner sleep per round (default 0)
//   serve_jsonl=<path>   per-epoch JSONL rows + summary line
//                        (scripts/check_serve.py validates the file)
//   bench_json=<path>    Google-Benchmark JSON for compare_bench.py
//   fault_rate=<p> fault_seed=<s>   arm a seeded fault plan over every
//                        injectable site — the solver ladder plus the
//                        serving seams kReplan and kPlanDeadline (inert
//                        with -DMFGCP_FAULTS=OFF). The soak contract:
//                        failed_epochs stays 0 regardless.

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <optional>
#include <string>

#include "bench_common.h"
#include "common/build_info.h"
#include "common/table.h"
#include "core/fault_injection.h"
#include "serve/serve_clock.h"
#include "serve/serve_loop.h"
#include "sim/request_stream.h"

namespace mfg {
namespace {

int Run(int argc, char** argv) {
  const common::Config config = bench::ParseArgs(argc, argv);
  bench::Banner("serve", "online serving runtime soak");

  sim::RequestStreamOptions stream_options;
  stream_options.num_requests =
      static_cast<std::size_t>(config.GetInt("requests", 200000));
  stream_options.num_contents =
      static_cast<std::size_t>(config.GetInt("num_contents", 20));
  stream_options.arrival_rate = config.GetDouble("rate", 1000.0);
  stream_options.zipf_iota = config.GetDouble("zipf", 0.8);
  stream_options.seed =
      static_cast<std::uint64_t>(config.GetInt("seed", 42));
  auto stream = sim::GenerateRequestStream(stream_options);
  MFG_CHECK(stream.ok()) << stream.status();

  serve::ServeOptions options;
  options.engine.num_contents = stream_options.num_contents;
  options.engine.cache_capacity =
      static_cast<std::size_t>(config.GetInt("capacity", 6));
  options.engine.epoch_period = config.GetDouble("epoch_period", 25.0);
  options.plan.planner.base_params.grid.num_q_nodes =
      static_cast<std::size_t>(config.GetInt("grid", 41));
  options.plan.planner.base_params.grid.num_time_steps =
      static_cast<std::size_t>(config.GetInt("time_steps", 50));
  options.plan.planner.base_params.learning.max_iterations =
      static_cast<std::size_t>(config.GetInt("iters", 25));
  options.plan.planner.parallelism =
      static_cast<std::size_t>(config.GetInt("parallelism", 1));
  options.plan.planner.batch_width =
      static_cast<std::size_t>(config.GetInt("batch_width", 8));
  options.zipf_iota = stream_options.zipf_iota;
  options.plan_deadline_ms = config.GetDouble("plan_deadline_ms", 0.0);
  options.synthetic_plan_delay_ms = config.GetDouble("plan_delay_ms", 0.0);
  options.jsonl_path = config.GetString("serve_jsonl", "");

  const std::string timescale = config.GetString("timescale", "inf");
  if (!serve::ParseTimescale(timescale, options.clock.timescale)) {
    std::fprintf(stderr, "bad timescale '%s' (want inf or a positive number)\n",
                 timescale.c_str());
    return 1;
  }
  options.clock.tick_ms = config.GetDouble("tick_ms", 10.0);

#if MFGCP_FAULTS_ENABLED
  // The serving soak: seeded faults over all injectable sites, including
  // the two serving seams. The CI soak row asserts the run completes with
  // failed_epochs=0 and a check_serve.py-valid JSONL.
  std::optional<core::faults::ScopedFaultInjection> fault_injection;
  static core::faults::FaultPlan fault_plan;
  const double fault_rate = config.GetDouble("fault_rate", 0.0);
  if (fault_rate > 0.0) {
    core::faults::FaultPlan::SeedOptions seed_options;
    seed_options.seed =
        static_cast<std::uint64_t>(config.GetInt("fault_seed", 7));
    const double horizon =
        static_cast<double>(stream_options.num_requests) /
        stream_options.arrival_rate;
    seed_options.num_epochs =
        static_cast<std::size_t>(horizon / options.engine.epoch_period) + 2;
    seed_options.num_contents = stream_options.num_contents;
    seed_options.fault_rate = fault_rate;
    seed_options.sites = {
        core::faults::FaultSite::kParamsBuild,
        core::faults::FaultSite::kRebind,
        core::faults::FaultSite::kSolve,
        core::faults::FaultSite::kHjbStep,
        core::faults::FaultSite::kFpkStep,
        core::faults::FaultSite::kNonConvergence,
        core::faults::FaultSite::kReplan,
        core::faults::FaultSite::kPlanDeadline,
    };
    fault_plan = core::faults::FaultPlan::FromSeed(seed_options);
    fault_injection.emplace(fault_plan);
    std::printf("armed serving fault plan: rate=%.2f seed=%llu sites=all\n",
                fault_rate,
                static_cast<unsigned long long>(seed_options.seed));
  }
#endif  // MFGCP_FAULTS_ENABLED

  const std::string bench_json = config.GetString("bench_json", "");
  // Every key this binary reads has been read: refuse unknown keys before
  // the long run instead of after it.
  if (const int status = bench::UnreadKeysExitStatus(config); status != 0) {
    return status;
  }

  auto loop = serve::ServeLoop::Create(options);
  MFG_CHECK(loop.ok()) << loop.status();

  serve::ServeStats stats;
  const auto status = loop.value()->Run(stream.value(), stats);
  MFG_CHECK(status.ok()) << status;

  const double allocs_per_tick =
      stats.steady_ticks > 0
          ? static_cast<double>(stats.steady_allocs) /
                static_cast<double>(stats.steady_ticks)
          : 0.0;
  const double mreq_per_s =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.requests.requests) /
                stats.wall_seconds / 1e6
          : 0.0;

  bench::Section("serving headline metrics");
  common::TextTable table(
      {"mode", "requests", "hit_ratio", "mean_delay", "replans",
       "publications", "misses", "skipped", "failed", "ticks",
       "allocs_per_tick", "Mreq_per_s"});
  char hit[32], delay[32], apt[32], rate[32];
  std::snprintf(hit, sizeof(hit), "%.4f", stats.requests.HitRatio());
  std::snprintf(delay, sizeof(delay), "%.4f", stats.requests.MeanDelay());
  std::snprintf(apt, sizeof(apt), "%.3f", allocs_per_tick);
  std::snprintf(rate, sizeof(rate), "%.2f", mreq_per_s);
  const serve::ServeClock clock(options.clock);
  const std::string mode = clock.paced() ? "paced" : "unpaced";
  table.AddRow({mode, std::to_string(stats.requests.requests), hit, delay,
                std::to_string(stats.requests.replans),
                std::to_string(stats.publications),
                std::to_string(stats.deadline_misses),
                std::to_string(stats.skipped_plan_rounds),
                std::to_string(stats.failed_epochs),
                std::to_string(stats.ticks), apt, rate});
  std::printf("%s", table.ToString().c_str());
  if (!options.jsonl_path.empty()) {
    std::printf("serve jsonl: %s\n", options.jsonl_path.c_str());
  }

  if (!bench_json.empty()) {
    // Google-Benchmark JSON by hand: the run is one wall-clock serve
    // pass, not an iteration loop, but compare_bench.py only needs
    // context.mfgcp_build_type, the run name, real_time, and counters.
    std::ofstream out(bench_json);
    MFG_CHECK(out.good()) << "cannot write " << bench_json;
    out << std::setprecision(17);
    // Build provenance rides the context object (the same fields the
    // admin /metrics endpoint exposes as mfgcp_build_info), so a checked
    // -in baseline records which build produced it.
    const common::BuildInfo& build = common::GetBuildInfo();
    out << "{\n"
        << "  \"context\": {\"mfgcp_build_type\": \"" << build.build_type
        << "\", \"git_describe\": \"" << build.git_describe
        << "\", \"compiler\": \"" << build.compiler
        << "\", \"mfgcp_obs\": " << (build.obs_enabled ? "true" : "false")
        << ", \"mfgcp_faults\": " << (build.faults_enabled ? "true" : "false")
        << ", \"mfgcp_simd\": " << (build.simd_enabled ? "true" : "false")
        << "},\n"
        << "  \"benchmarks\": [\n"
        << "    {\n"
        << "      \"name\": \"BM_ServeLoop/" << mode << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"iterations\": 1,\n"
        << "      \"real_time\": " << stats.wall_seconds * 1e3 << ",\n"
        << "      \"cpu_time\": " << stats.wall_seconds * 1e3 << ",\n"
        << "      \"time_unit\": \"ms\",\n"
        << "      \"allocs_per_tick\": " << allocs_per_tick << ",\n"
        << "      \"hit_ratio\": " << stats.requests.HitRatio() << ",\n"
        << "      \"publications\": " << stats.publications << ",\n"
        << "      \"deadline_misses\": " << stats.deadline_misses << ",\n"
        << "      \"failed_epochs\": " << stats.failed_epochs << ",\n"
        << "      \"requests_per_second\": " << mreq_per_s * 1e6 << "\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    MFG_CHECK(out.good()) << "write to " << bench_json << " failed";
    std::printf("bench json: %s\n", bench_json.c_str());
  }

  MFG_CHECK(stats.failed_epochs == 0)
      << "serving soak saw " << stats.failed_epochs << " failed epochs";
  return 0;
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) { return mfg::Run(argc, argv); }
