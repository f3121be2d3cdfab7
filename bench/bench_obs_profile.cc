// Observability demo: runs one MFG-CP planning epoch (Alg. 1) over a Zipf
// catalog plus a short simulator run, so every instrumented layer fires —
// then prints the solver counters the telemetry registry collected.
//
// The interesting outputs come from the shared observability keys
// (OBSERVABILITY.md):
//   bench_obs_profile trace_out=trace.json     Chrome trace whose spans
//       nest PlanEpoch -> PlanEpoch.SolveContent -> BestResponse.Solve ->
//       Hjb.SolveInto / Fpk.SolveInto (load in chrome://tracing or
//       https://ui.perfetto.dev)
//   bench_obs_profile metrics_out=metrics.json metrics_csv=metrics.csv
//       full registry dump
//   bench_obs_profile parallelism=4            per-content solves fan out
//       over worker threads; the trace shows one lane per thread
//   bench_obs_profile epochs=50 metrics_stream=stream.jsonl
//       stream_period_ms=50 health_log=on     long-running loop with the
//       registry streamed as a JSONL time series and one health line per
//       epoch (the CI streaming soak runs exactly this)

#include <optional>

#include "bench_common.h"
#include "core/fault_injection.h"
#include "core/mfg_cp.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Obs", "telemetry profile of one planning epoch");
  core::MfgCpOptions options;
  options.base_params = bench::SolverParams(config);
  options.parallelism =
      static_cast<std::size_t>(config.GetInt("parallelism", 1));
  const std::size_t contents =
      static_cast<std::size_t>(config.GetInt("num_contents", 16));
  // eq_probe=on enables the per-epoch equilibrium-quality gauge stage
  // (eq.* registry gauges + the health line's eq block);
  // eq_probe_contents= sets the probed window (0 = every active slot).
  // Both keys are read in every build, so the unknown-key check accepts
  // them, and are inert with -DMFGCP_OBS=OFF like the other telemetry keys.
  const bool eq_probe = config.GetString("eq_probe", "") == "on";
  const auto eq_probe_contents =
      static_cast<std::size_t>(config.GetInt("eq_probe_contents", 4));
  if (MFGCP_OBS_ENABLED) {
    options.eq_probe.enabled = eq_probe;
    options.eq_probe.max_contents = eq_probe_contents;
  }

  auto catalog = content::Catalog::CreateUniform(
      contents, options.base_params.content_size);
  MFG_CHECK(catalog.ok()) << catalog.status();
  auto popularity = content::PopularityModel::CreateZipf(contents, 0.8);
  MFG_CHECK(popularity.ok()) << popularity.status();
  auto timeliness =
      content::TimelinessModel::Create(content::TimelinessParams());
  MFG_CHECK(timeliness.ok()) << timeliness.status();
  auto framework =
      core::MfgCpFramework::Create(options, *catalog, *popularity,
                                   *timeliness);
  MFG_CHECK(framework.ok()) << framework.status();

  core::EpochObservation epoch_obs;
  epoch_obs.request_counts.assign(contents, 10);
  epoch_obs.mean_timeliness.assign(contents, 2.5);
  epoch_obs.mean_remaining.assign(contents, 70.0);

  bench::Section("Alg. 1 planning epochs");
  const std::size_t epochs =
      static_cast<std::size_t>(config.GetInt("epochs", 1));

#if MFGCP_FAULTS_ENABLED
  // fault_rate= arms a seeded fault plan over the whole run (fault_seed=
  // keys it), restricted to solver-stage sites so the recovery ladder can
  // absorb every hit and the epoch loop still returns Ok — the CI soak
  // uses this to exercise the ladder, the flight dumps, and the eq probe
  // on degraded slots at once.
  std::optional<core::faults::ScopedFaultInjection> fault_injection;
  static core::faults::FaultPlan fault_plan;
  const double fault_rate = config.GetDouble("fault_rate", 0.0);
  if (fault_rate > 0.0) {
    core::faults::FaultPlan::SeedOptions seed_options;
    seed_options.seed =
        static_cast<std::uint64_t>(config.GetInt("fault_seed", 7));
    seed_options.num_epochs = epochs;
    seed_options.num_contents = contents;
    seed_options.fault_rate = fault_rate;
    seed_options.sites = {
        core::faults::FaultSite::kSolve, core::faults::FaultSite::kHjbStep,
        core::faults::FaultSite::kFpkStep,
        core::faults::FaultSite::kNonConvergence};
    fault_plan = core::faults::FaultPlan::FromSeed(seed_options);
    fault_injection.emplace(fault_plan);
    std::printf("armed fault plan: rate=%.2f seed=%llu\n", fault_rate,
                static_cast<unsigned long long>(seed_options.seed));
  }
#endif  // MFGCP_FAULTS_ENABLED

  core::EpochPlanBuffer buffer;
  core::EpochHealthReport health;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto status =
        framework->PlanEpochInto(epoch_obs, buffer, &health);
    MFG_CHECK(status.ok()) << status;
  }
  std::printf("planned %zu/%zu contents x %zu epochs (parallelism=%zu)\n",
              buffer.num_active, contents, epochs, options.parallelism);
  std::printf("last epoch: %s\n",
              core::FormatHealthLine(health).c_str());

  bench::Section("short simulator run");
  sim::SimulatorOptions sim_options =
      bench::SimOptions(config, options.base_params);
  sim_options.num_slots =
      static_cast<std::size_t>(config.GetInt("slots", 20));
  auto simulator = sim::Simulator::Create(sim_options);
  MFG_CHECK(simulator.ok()) << simulator.status();
  auto result = simulator->Run(sim::UniformScheme(
      "RR", baselines::MakeRandomReplacement(), sim_options.num_contents));
  MFG_CHECK(result.ok()) << result.status();
  std::printf("simulated %zu slots, %zu requests served\n",
              result->per_slot.size(), result->total.requests_served);

  bench::Section("telemetry registry (solver counters)");
  obs::Registry& registry = obs::Registry::Global();
  common::TextTable table({"counter", "value"});
  for (const char* name :
       {"core.plan_epoch.epochs", "core.best_response.solves",
        "core.best_response.converged", "core.best_response.nonconverged",
        "core.hjb.sweeps", "core.fpk.sweeps", "core.mean_field.estimates",
        "sim.runs", "sim.slots", "sim.requests_settled"}) {
    table.AddRow({name,
                  std::to_string(registry.GetCounter(name).Value())});
  }
  bench::Emit(config, "obs_profile_counters", table);
  std::printf(
      "\nPass trace_out=/metrics_out= to export the full trace/registry "
      "(see OBSERVABILITY.md).\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
