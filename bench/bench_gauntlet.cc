// Baseline gauntlet driver (EXPERIMENTS.md "Baseline gauntlet"): replays
// one request stream through every caching scheme at a sweep of cache
// capacities and prints the request-level headline metrics — hit ratio,
// mean access delay, backhaul load — per (scheme, capacity) cell.
//
// Keys (on top of the shared observability keys of bench_common.h):
//   requests=<n>         stream length (default 200000)
//   num_contents=<k>     catalog size (default 20)
//   rate=<r>             arrival rate per unit sim-time (default 1000)
//   zipf=<iota>          Zipf skew of the Poisson stream (default 0.8)
//   seed=<s>             stream seed (default 42)
//   arrival=poisson|trace        arrival process (default poisson)
//   trace=<path>|synthetic       CSV trace (category_id,day,views) or a
//                                synthetic trending trace (arrival=trace)
//   trace_days=<n>       synthetic trace length in days (default 30)
//   capacities=<a,b,..>  capacity sweep in contents (default 2,4,6,8)
//   scheme=<S1,S2,..>    subset of MFG-CP,LRU,LFU,PG,MPC,OPT (default all)
//   epoch_period=<t>     sim-time between MFG-CP replans (default 25)
//   parallelism=<w> batch_width=<b> grid=<nq> time_steps=<nt> iters=<n>
//                        planner knobs (defaults 1 / 8 / 41 / 50 / 25)
//   gauntlet_csv=<path>  also write the cells as CSV
//                        (scripts/check_gauntlet.py validates the file)
//   fault_rate=<p> fault_seed=<s>   arm seeded kReplan faults on the
//                        epoch-boundary seam (inert with -DMFGCP_FAULTS=OFF):
//                        hit boundaries keep the previous placement and
//                        count into the replan_faults column.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "content/trace.h"
#include "core/fault_injection.h"
#include "sim/gauntlet.h"

namespace mfg {
namespace {

int Run(int argc, char** argv) {
  const common::Config config = bench::ParseArgs(argc, argv);
  bench::Banner("gauntlet", "request-level baseline gauntlet");

  sim::GauntletOptions options;
  options.stream.num_requests =
      static_cast<std::size_t>(config.GetInt("requests", 200000));
  options.stream.num_contents =
      static_cast<std::size_t>(config.GetInt("num_contents", 20));
  options.stream.arrival_rate = config.GetDouble("rate", 1000.0);
  options.stream.zipf_iota = config.GetDouble("zipf", 0.8);
  options.stream.seed =
      static_cast<std::uint64_t>(config.GetInt("seed", 42));
  options.engine.num_contents = options.stream.num_contents;
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

  const std::string arrival = config.GetString("arrival", "poisson");
  if (!sim::ParseArrivalProcess(arrival, options.stream.arrival)) {
    std::fprintf(stderr, "unknown arrival '%s' (want poisson|trace)\n",
                 arrival.c_str());
    return 1;
  }
  content::Trace trace;
  if (options.stream.arrival == sim::ArrivalProcess::kTrace) {
    const std::string trace_spec = config.GetString("trace", "synthetic");
    if (trace_spec == "synthetic") {
      content::SyntheticTraceOptions trace_options;
      trace_options.num_categories = options.stream.num_contents;
      trace_options.num_days =
          static_cast<std::size_t>(config.GetInt("trace_days", 30));
      trace_options.zipf_iota = options.stream.zipf_iota;
      common::Rng rng(options.stream.seed + 1);
      auto generated = content::GenerateSyntheticTrace(trace_options, rng);
      MFG_CHECK(generated.ok()) << generated.status();
      trace = std::move(generated).value();
    } else {
      auto loaded = content::LoadTraceCsv(trace_spec);
      MFG_CHECK(loaded.ok()) << loaded.status();
      trace = std::move(loaded).value();
    }
    options.trace = &trace;
  }

  options.capacities.clear();
  for (const std::string& part :
       bench::SplitCommas(config.GetString("capacities", "2,4,6,8"))) {
    options.capacities.push_back(
        static_cast<std::size_t>(std::stoul(part)));
  }

  const std::string scheme_spec = config.GetString("scheme", "");
  if (!scheme_spec.empty()) {
    for (const std::string& part : bench::SplitCommas(scheme_spec)) {
      sim::GauntletScheme scheme;
      if (!sim::ParseGauntletScheme(part, scheme)) {
        std::fprintf(stderr,
                     "unknown scheme '%s' (want MFG-CP|LRU|LFU|PG|MPC|OPT)\n",
                     part.c_str());
        return 1;
      }
      options.schemes.push_back(scheme);
    }
  }

#if MFGCP_FAULTS_ENABLED
  // Seeded faults on the kReplan seam: boundaries drawn by the plan keep
  // the previous placement (the engine's degraded-not-fatal contract); the
  // CI soak asserts the gauntlet still completes with a valid CSV.
  std::optional<core::faults::ScopedFaultInjection> fault_injection;
  static core::faults::FaultPlan fault_plan;
  const double fault_rate = config.GetDouble("fault_rate", 0.0);
  if (fault_rate > 0.0) {
    core::faults::FaultPlan::SeedOptions seed_options;
    seed_options.seed =
        static_cast<std::uint64_t>(config.GetInt("fault_seed", 7));
    const double horizon = static_cast<double>(options.stream.num_requests) /
                           options.stream.arrival_rate;
    seed_options.num_epochs = static_cast<std::size_t>(
        horizon / options.engine.epoch_period) + 2;
    seed_options.num_contents = 1;  // One replan per boundary.
    seed_options.fault_rate = fault_rate;
    seed_options.sites = {core::faults::FaultSite::kReplan};
    fault_plan = core::faults::FaultPlan::FromSeed(seed_options);
    fault_injection.emplace(fault_plan);
    std::printf("armed replan fault plan: rate=%.2f seed=%llu\n", fault_rate,
                static_cast<unsigned long long>(seed_options.seed));
  }
#endif  // MFGCP_FAULTS_ENABLED

  const std::string csv_path = config.GetString("gauntlet_csv", "");
  // Every key this binary reads has been read: refuse unknown keys before
  // the long run instead of after it.
  if (const int status = bench::UnreadKeysExitStatus(config); status != 0) {
    return status;
  }

  auto outcomes = sim::RunGauntlet(options);
  MFG_CHECK(outcomes.ok()) << outcomes.status();

  bench::Section("hit ratio / delay / backhaul per (scheme, capacity)");
  common::TextTable table({"scheme", "capacity", "hit_ratio", "mean_delay",
                           "backhaul_mb", "backhaul_rate", "replans",
                           "replan_faults", "Mreq_per_s"});
  for (const sim::GauntletOutcome& o : outcomes.value()) {
    char hit[32], delay[32], bmb[32], brate[32], rate[32];
    std::snprintf(hit, sizeof(hit), "%.4f", o.stats.HitRatio());
    std::snprintf(delay, sizeof(delay), "%.4f", o.stats.MeanDelay());
    std::snprintf(bmb, sizeof(bmb), "%.3e", o.stats.backhaul_mb);
    std::snprintf(brate, sizeof(brate), "%.3e", o.stats.BackhaulRate());
    std::snprintf(rate, sizeof(rate), "%.2f",
                  o.replay_seconds > 0.0
                      ? static_cast<double>(o.stats.requests) /
                            o.replay_seconds / 1e6
                      : 0.0);
    table.AddRow({o.scheme, std::to_string(o.capacity), hit, delay, bmb,
                  brate, std::to_string(o.stats.replans),
                  std::to_string(o.stats.replan_faults), rate});
  }
  std::printf("%s", table.ToString().c_str());

  if (!csv_path.empty()) {
    const auto status = sim::WriteGauntletCsv(csv_path, outcomes.value());
    MFG_CHECK(status.ok()) << status;
    std::printf("gauntlet csv: %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) { return mfg::Run(argc, argv); }
