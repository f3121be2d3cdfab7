#ifndef MFGCP_BENCH_BENCH_COMMON_H_
#define MFGCP_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "baselines/mfg_no_sharing.h"
#include "baselines/most_popular.h"
#include "baselines/random_replacement.h"
#include "baselines/udcs.h"
#include "common/build_info.h"
#include "common/config.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/best_response.h"
#include "core/epoch_health.h"
#include "core/policy.h"
#include "obs/exporter.h"
#include "obs/flight_dump.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "obs/trace.h"
#include "sim/simulator.h"

// Shared plumbing for the figure/table reproduction binaries. Every bench
// accepts `key=value` command-line overrides (seed=, num_edps=, slots=,
// grid=, iters=) and prints aligned text tables with the same series the
// paper plots. See EXPERIMENTS.md for the experiment index.
//
// Observability keys (see OBSERVABILITY.md), honored by every bench via
// ParseArgs:
//   log=debug|info|warning|error   log threshold (default: info)
//   trace_out=<path>       record a Chrome trace of the run; written at exit
//   trace_capacity=<n>     span ring capacity in events (default: 65536)
//   metrics_out=<path>     write the metrics registry as JSON at exit
//   metrics_csv=<path>     write the metrics registry as CSV at exit
//   metrics_stream=<path>  stream one JSONL row per sampling window while
//                          the bench runs (obs/stream.h)
//   metrics_stream_csv=<path>  companion wide-format CSV of the stream
//   stream_period_ms=<n>   sampling window, default 1000
//   health_log=on          log one health line per planner epoch
//   flight_dump=<dir>      write flight-recorder JSONL post-mortems for
//                          degraded epochs into <dir> (obs/flight_dump.h)
//   flight_dump_max=<n>    cap on dump files per process (default 16)
//   flight_dump_events=<n> last-N events kept per content in a dump (64)
//   flight_dump_all=on     also dump healthy epochs (every active content)
//   flight_record=off      disable the flight-recorder journal entirely
//   admin_port=<p>         serve the live admin endpoint (/metrics /healthz
//                          /readyz /epochz /flightz, obs/exporter.h) on
//                          127.0.0.1:<p> for the whole run; 0 picks an
//                          ephemeral port (printed at startup)
//   epochz_capacity=<n>    /epochz ring size (default 64)
// The streaming, flight, and admin keys are ignored (with no output file
// or socket) when the binary is built with -DMFGCP_OBS=OFF; health_log
// works either way.
//
// Unknown keys: a key no getter of the run read (a misspelt or unsupported
// key) makes the binary exit with status 2 naming it — see RunWithArgs.
// The observability keys above count as read in every build.

namespace mfg::bench {

// Splits a comma-separated key value ("2,4,8") into its non-empty parts.
inline std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

// Prints a figure/table banner.
inline void Banner(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void Section(const std::string& text) {
  std::printf("\n--- %s ---\n", text.c_str());
}

// Solver parameters with bench-wide defaults and config overrides.
inline core::MfgParams SolverParams(const common::Config& config) {
  core::MfgParams params = core::DefaultPaperParams();
  params.grid.num_q_nodes =
      static_cast<std::size_t>(config.GetInt("grid", 81));
  params.grid.num_time_steps =
      static_cast<std::size_t>(config.GetInt("time_steps", 100));
  params.learning.max_iterations =
      static_cast<std::size_t>(config.GetInt("iters", 40));
  return params;
}

// Simulator options consistent with the solver parameters. The paper's
// headline scale is M = 300, K = 20; benches default to a lighter M = 100,
// K = 10 so the full `for b in bench/*` sweep stays fast — pass num_edps=
// and num_contents= to reproduce at full scale.
inline sim::SimulatorOptions SimOptions(const common::Config& config,
                                        const core::MfgParams& params) {
  sim::SimulatorOptions options;
  options.base_params = params;
  options.num_edps =
      static_cast<std::size_t>(config.GetInt("num_edps", 100));
  options.num_requesters = static_cast<std::size_t>(
      config.GetInt("num_requesters", 3 * options.num_edps));
  options.num_contents =
      static_cast<std::size_t>(config.GetInt("num_contents", 10));
  options.num_slots =
      static_cast<std::size_t>(config.GetInt("slots", 100));
  options.request_rate = config.GetDouble("request_rate", 20.0);
  options.seed = static_cast<std::uint64_t>(config.GetInt("seed", 42));
  options.topology.adjacency_radius =
      config.GetDouble("adjacency_radius", 500.0);
  return options;
}

// Solves the mean-field equilibrium for `params` (dies on error: benches
// treat solver failures as fatal).
inline core::Equilibrium Solve(const core::MfgParams& params) {
  auto learner = core::BestResponseLearner::Create(params);
  MFG_CHECK(learner.ok()) << learner.status();
  auto equilibrium = learner->Solve();
  MFG_CHECK(equilibrium.ok()) << equilibrium.status();
  return std::move(equilibrium).value();
}

// Wraps an equilibrium policy for every content of a simulator run.
inline sim::SchemePolicies MfgScheme(const core::MfgParams& params,
                                     const core::Equilibrium& equilibrium,
                                     std::size_t num_contents,
                                     const std::string& name) {
  auto policy = core::MfgPolicy::Create(params, equilibrium, name);
  MFG_CHECK(policy.ok()) << policy.status();
  std::shared_ptr<core::CachingPolicy> shared(std::move(policy).value());
  return sim::UniformScheme(name, shared, num_contents);
}

// Prints a table and, when the config carries csv_dir=<dir>, also writes
// it to <dir>/<name>.csv for external plotting.
inline void Emit(const common::Config& config, const std::string& name,
                 const common::TextTable& table) {
  std::printf("%s", table.ToString().c_str());
  const std::string dir = config.GetString("csv_dir", "");
  if (dir.empty()) return;
  const std::string path = dir + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    MFG_LOG(WARNING) << "cannot write " << path;
    return;
  }
  out << table.ToCsv();
}

// Applies the shared observability keys (see the header comment). Output
// paths live in function-local statics because the writers run from
// std::atexit, after main's locals are gone.
inline void InitObservability(const common::Config& config) {
  // Every bench accepts every key listed at the top of this file, also
  // where this build or the other keys leave it inert.
  for (const char* key :
       {"log", "trace_out", "trace_capacity", "metrics_out", "metrics_csv",
        "metrics_stream", "metrics_stream_csv", "stream_period_ms",
        "health_log", "flight_dump", "flight_dump_max", "flight_dump_events",
        "flight_dump_all", "flight_record", "admin_port",
        "epochz_capacity"}) {
    config.Has(key);
  }

  const std::string log = config.GetString("log", "");
  if (!log.empty()) {
    common::LogLevel level = common::LogLevel::kInfo;
    if (common::ParseLogLevel(log, level)) {
      common::SetLogThreshold(level);
    } else {
      MFG_LOG(WARNING) << "unknown log level '" << log
                       << "' (want debug|info|warning|error)";
    }
  }

  static std::string trace_path;
  trace_path = config.GetString("trace_out", "");
  if (!trace_path.empty()) {
    obs::TraceSession::Global().Start(static_cast<std::size_t>(
        config.GetInt("trace_capacity",
                      static_cast<int>(obs::TraceSession::kDefaultCapacity))));
    std::atexit([] {
      obs::TraceSession& session = obs::TraceSession::Global();
      session.Stop();
      const auto status = session.WriteChromeTrace(trace_path);
      if (status.ok()) {
        std::printf("trace: %zu spans -> %s\n", session.size(),
                    trace_path.c_str());
      } else {
        std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
      }
    });
  }

  static std::string metrics_json_path;
  metrics_json_path = config.GetString("metrics_out", "");
  if (!metrics_json_path.empty()) {
    std::atexit([] {
      const auto status =
          obs::Registry::Global().WriteJson(metrics_json_path);
      if (status.ok()) {
        std::printf("metrics: %s\n", metrics_json_path.c_str());
      } else {
        std::fprintf(stderr, "metrics: %s\n", status.ToString().c_str());
      }
    });
  }

  static std::string metrics_csv_path;
  metrics_csv_path = config.GetString("metrics_csv", "");
  if (!metrics_csv_path.empty()) {
    std::atexit([] {
      const auto status = obs::Registry::Global().WriteCsv(metrics_csv_path);
      if (status.ok()) {
        std::printf("metrics: %s\n", metrics_csv_path.c_str());
      } else {
        std::fprintf(stderr, "metrics: %s\n", status.ToString().c_str());
      }
    });
  }

  if (config.GetString("health_log", "") == "on") {
    core::SetEpochHealthLogging(true);
  }

#if MFGCP_OBS_ENABLED
  // Streaming export: sample the registry on a background thread for the
  // whole bench run; the final window is flushed by the atexit Stop. With
  // observability compiled out there is nothing to sample, so the keys
  // are silently ignored (no file is created).
  const std::string stream_path = config.GetString("metrics_stream", "");
  if (!stream_path.empty()) {
    // The wide-CSV's column set is frozen at Start from the instruments
    // registered so far; touch the hot latency histograms up front so
    // their p50/p90/p99 columns exist even though the first Observe
    // happens mid-run (default seconds bounds, same as the macros use).
    obs::Registry::Global().GetHistogram("core.plan_epoch.seconds");
    obs::Registry::Global().GetHistogram("serve.tick_latency");
    obs::Registry::Global().GetHistogram("serve.plan_publish_latency");
    obs::StreamOptions stream_options;
    stream_options.jsonl_path = stream_path;
    stream_options.csv_path = config.GetString("metrics_stream_csv", "");
    stream_options.period = std::chrono::milliseconds(
        config.GetInt("stream_period_ms", 1000));
    const auto status = obs::MetricsStreamer::Global().Start(stream_options);
    if (status.ok()) {
      std::atexit([] {
        obs::MetricsStreamer& streamer = obs::MetricsStreamer::Global();
        streamer.Stop();
        std::printf("metrics stream: %llu windows\n",
                    static_cast<unsigned long long>(
                        streamer.windows_written()));
      });
    } else {
      std::fprintf(stderr, "metrics stream: %s\n",
                   status.ToString().c_str());
    }
  }

  // Flight-recorder keys (OBSERVABILITY.md "Flight recorder"). With
  // observability compiled out the macros are no-ops and no dump directory
  // is ever created, so the keys are inert.
  if (config.GetString("flight_record", "") == "off") {
    obs::FlightJournal::Get().SetEnabled(false);
  }
  const std::string flight_dir = config.GetString("flight_dump", "");
  if (!flight_dir.empty()) {
    obs::FlightDumpOptions flight_options;
    flight_options.directory = flight_dir;
    flight_options.max_dumps =
        static_cast<std::size_t>(config.GetInt("flight_dump_max", 16));
    flight_options.max_events_per_content =
        static_cast<std::size_t>(config.GetInt("flight_dump_events", 64));
    flight_options.dump_healthy =
        config.GetString("flight_dump_all", "") == "on";
    obs::SetFlightDumpOptions(std::move(flight_options));
  }

  // Live introspection plane (OBSERVABILITY.md "Live introspection"): one
  // process-wide exporter for the whole run, stopped from atexit like the
  // streamer. Inert when the telemetry layer is compiled out.
  const std::int64_t admin_port = config.GetInt("admin_port", -1);
  if (admin_port >= 0) {
    obs::ExporterOptions admin_options;
    admin_options.port = static_cast<int>(admin_port);
    admin_options.epochz_capacity =
        static_cast<std::size_t>(config.GetInt("epochz_capacity", 64));
    const auto status = obs::AdminExporter::Global().Start(admin_options);
    if (status.ok()) {
      std::printf("admin: http://127.0.0.1:%d/metrics\n",
                  obs::AdminExporter::Global().port());
      std::atexit([] { obs::AdminExporter::Global().Stop(); });
    } else {
      std::fprintf(stderr, "admin: %s\n", status.ToString().c_str());
    }
  }
#endif  // MFGCP_OBS_ENABLED
}

// Parses CLI config or dies with usage; applies the observability keys so
// every bench supports them without per-binary plumbing.
inline common::Config ParseArgs(int argc, const char* const* argv) {
  auto config = common::Config::FromArgs(argc, argv);
  MFG_CHECK(config.ok()) << config.status()
                         << " (usage: key=value, e.g. seed=7 num_edps=300)";
  InitObservability(*config);
  return std::move(config).value();
}

// 0 when every key of `config` was read by some getter; otherwise names
// the unread keys on stderr and returns 2, so a misspelt key fails the run
// instead of silently running the defaults.
inline int UnreadKeysExitStatus(const common::Config& config) {
  const std::vector<std::string> unread = config.UnreadKeys();
  if (unread.empty()) return 0;
  std::string names;
  for (const std::string& key : unread) {
    names += (names.empty() ? "" : ", ") + key;
  }
  std::fprintf(stderr,
               "error: unknown key(s) %s: this binary reads no such "
               "setting\n",
               names.c_str());
  return 2;
}

// main() of the key=value benches: ParseArgs, run(config), then the exit
// status of UnreadKeysExitStatus.
inline int RunWithArgs(int argc, const char* const* argv,
                       void (*run)(const common::Config&)) {
  const common::Config config = ParseArgs(argc, argv);
  run(config);
  return UnreadKeysExitStatus(config);
}

// main() of the google-benchmark binaries: BENCHMARK_MAIN() plus this
// build's CMAKE_BUILD_TYPE as `mfgcp_build_type` in the JSON context.
// scripts/compare_bench.py reads that key; the context's own
// `library_build_type` is the build type of the Google Benchmark library.
inline int GoogleBenchmarkMain(int argc, char** argv) {
  benchmark::AddCustomContext("mfgcp_build_type",
                              common::GetBuildInfo().build_type);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace mfg::bench

#endif  // MFGCP_BENCH_BENCH_COMMON_H_
