// The repository benchmark program: runs one workload and prints every
// metric by name with its unit, then one JSON result line.
//
//   perfbench_mfgcp --workload <replan_drift|request_sweep|serve_paced>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--spans-out <path>]
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the same passes with spans recorded around every call into the
// library plus the layer ledger (ledger.h), and reports the per-layer
// metrics. README.md beside this file lists the metrics, the layer each
// belongs to and the end-to-end metric it should move. Every input is
// generated from --seed; the correctness gate fails the run (exit 1)
// instead of reporting a metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "ledger.h"
#include "pipeline.h"
#include "spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0') return false;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds >= 1 &&
         args.seconds <= 60 && (args.trace == 0 || args.trace == 1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Provenance(const Args& args, unsigned nproc) {
  const mfg::common::BuildInfo& info = mfg::common::GetBuildInfo();
  std::string json = "{\"workload\":\"" + args.workload +
                     "\",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + std::to_string(args.seconds) +
                     ",\"trace\":" + std::to_string(args.trace) +
                     ",\"nproc\":" + std::to_string(nproc) +
                     ",\"git_describe\":\"" + info.git_describe +
                     "\",\"compiler\":\"" + info.compiler +
                     "\",\"build_type\":\"" + info.build_type +
                     "\",\"obs\":" + (info.obs_enabled ? "true" : "false") +
                     ",\"faults\":" + (info.faults_enabled ? "true" : "false") +
                     ",\"simd\":" + (info.simd_enabled ? "true" : "false") +
                     "}";
  return json;
}

void PrintResult(bool correct, double attempted, double failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-44s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + FormatNumber(attempted) +
                     ", \"failed\": " + FormatNumber(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Samples beyond the q-quantile of n samples.
std::size_t TailSamples(std::size_t n, double q) {
  return n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const mfg::common::BuildInfo& info = mfg::common::GetBuildInfo();
  if (std::strcmp(info.build_type, "Release") != 0) {
    std::fprintf(stderr,
                 "refusing to record from a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 info.build_type);
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const bool traced = args.trace == 1;
  RunConfig config;
  config.spec = spec;
  config.seed = args.seed;
  config.seconds = static_cast<double>(args.seconds);
  // One process: planner workers plus the serve thread never exceed nproc.
  config.replan_parallelism = std::min<std::size_t>(4, nproc);
  config.serve_parallelism =
      std::max<std::size_t>(1, std::min<std::size_t>(2, nproc - 1));
  const std::string provenance = Provenance(args, nproc);
  std::printf("provenance %s\n", provenance.c_str());

  // Set-up is timed several times and reported as the median (one set-up
  // can take half as long again as the next on a shared host); the last
  // set-up is the one measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < (traced ? 1 : 7); ++i) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    auto built = BuildSetup(config);
    setup_seconds.push_back(SecondsSince(start));
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(built).value();
  }

  Gate gate;
  SpanRecorder spans(1 << 16);
  SpanRecorder* recorder = traced ? &spans : nullptr;
  const double seconds = config.seconds;
  ReplanPass replan_pass(*setup);
  RequestPass request_pass(*setup);
  ServePassResult served;
  for (int slice = 0; slice < kSlices; ++slice) {
    replan_pass.Run(seconds * spec->replan_share / kSlices, recorder, gate);
    request_pass.Run(seconds * spec->request_share / kSlices, recorder, gate);
    RunServePass(*setup, recorder, gate, served);
  }
  const ReplanPassResult& replan = replan_pass.result();
  const RequestPassResult& request = request_pass.result();

  // Outside every timed region: the plan sample and the parallelism check.
  auto capture = CaptureReplay(*setup, *setup->replan_hook, true, gate);
  auto serial_hook = CreateReplanHook(*setup, 1);
  std::vector<double> gaps;
  if (!capture.ok() || !serial_hook.ok()) {
    gate.Expect(false, "capture replay: " +
                           (capture.ok() ? serial_hook.status()
                                         : capture.status())
                               .ToString());
  } else {
    auto serial_capture = CaptureReplay(*setup, **serial_hook, false, gate);
    gaps = std::move(capture->gaps);
    if (!serial_capture.ok()) {
      gate.Expect(false, "serial capture replay: " +
                             serial_capture.status().ToString());
    } else {
      gate.Expect(capture->stats.hits == serial_capture->stats.hits &&
                      capture->stats.hits == replan.stats.hits,
                  "MFG-CP hit ratio differs between planner parallelism " +
                      std::to_string(config.replan_parallelism) + " and 1");
      // Bit-identical plans have identical exploitability.
      gate.Expect(serial_capture->plan_hashes == capture->plan_hashes,
                  "plans (and so exploitability) differ between planner "
                  "parallelism " +
                      std::to_string(config.replan_parallelism) + " and 1");
    }
    gate.Expect(!gaps.empty(), "exploitability sample is empty");
  }

  // Failure accounting, each with its base.
  const double boundaries = static_cast<double>(replan.boundaries);
  const double failed_boundaries =
      static_cast<double>(replan.failed_boundaries);
  const double plan_rounds =
      static_cast<double>(served.plan_rounds + served.skipped_plan_rounds);
  const double failed_rounds =
      static_cast<double>(served.deadline_misses + served.skipped_plan_rounds);
  const double requests = replan.requests + request.requests +
                          static_cast<double>(served.requests);
  std::printf("operations replan_boundaries attempted=%.0f failed=%.0f\n",
              boundaries, failed_boundaries);
  std::printf("operations plan_rounds attempted=%.0f failed=%.0f\n",
              plan_rounds, failed_rounds);
  std::printf("operations requests attempted=%.0f failed=0\n", requests);
  std::printf("allocations planner_pool_after_warmup=%zu\n",
              replan.pool_allocations);
  std::printf("samples replan=%zu (beyond p90: %zu) plan_lag=%zu "
              "exploitability=%zu setups=%zu\n",
              replan.replan_seconds.size(),
              TailSamples(replan.replan_seconds.size(), 0.9),
              served.lag_ms.size(), gaps.size(), setup_seconds.size());

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"replan_ms_p50", Quantile(replan.replan_seconds, 0.5) * 1e3, "ms"},
        {"replan_ms_p90", Quantile(replan.replan_seconds, 0.9) * 1e3, "ms"},
        {"replay_mreq_per_s",
         static_cast<double>(setup->replan_stream.size()) /
             Median(replan.replay_seconds) / 1e6,
         "Mreq/s"},
        {"request_mreq_per_s", Median(request.round_rates) / 1e6, "Mreq/s"},
        {"hit_ratio", replan.stats.HitRatio(), "ratio"},
        {"exploitability", Mean(gaps), "ratio"},
        {"solved_share",
         static_cast<double>(replan.solved_slots) /
             static_cast<double>(std::max<std::size_t>(1, replan.active_slots)),
         "ratio"},
        {"plan_lag_ms_p50", Median(served.lag_ms), "ms"},
        {"deadline_met_share",
         1.0 - failed_rounds / std::max(1.0, plan_rounds), "ratio"},
    };
  } else {
    // A failed capture has already failed the gate; the ledger needs both.
    const LedgerResult ledger =
        capture.ok() && serial_hook.ok()
            ? RunLedger(*setup, *setup->replan_hook, **serial_hook,
                        capture->counts, 0.25 * seconds, spans, gate)
            : LedgerResult{};
    const std::map<std::string, SpanRecorder::Totals> totals =
        spans.Aggregate();
    auto ns_per_request = [&totals](const char* name, double stream_size) {
      const auto it = totals.find(name);
      if (it == totals.end() || it->second.count == 0) return 0.0;
      return it->second.self_seconds * 1e9 /
             (static_cast<double>(it->second.count) * stream_size);
    };
    const double request_size =
        static_cast<double>(setup->request_stream.size());
    metrics = {
        {"content.popularity_us_per_epoch", ledger.popularity_us_per_epoch,
         "us"},
        {"core.params_us_per_content", ledger.params_us_per_content, "us"},
        {"core.bind_us_per_content", ledger.bind_us_per_content, "us"},
        {"core.hjb_us_per_lane_sweep", ledger.hjb_us_per_lane_sweep, "us"},
        {"core.fpk_us_per_lane_sweep", ledger.fpk_us_per_lane_sweep, "us"},
        {"core.estimator_us_per_call", ledger.estimator_us_per_call, "us"},
        {"core.best_response_iterations_per_content",
         ledger.iterations_per_content, "count"},
        {"core.best_response_converged_share", ledger.converged_share,
         "ratio"},
        {"core.best_response_self_us_per_content",
         ledger.best_response_self_us_per_content, "us"},
        {"core.plan_epoch_serial_ms", ledger.plan_epoch_serial_ms, "ms"},
        {"core.plan_epoch_self_share", ledger.plan_epoch_self_share,
         "ratio"},
        {"core.epoch_runtime_parallel_efficiency", ledger.parallel_efficiency,
         "ratio"},
        {"core.epoch_runtime_max_worker_share",
         replan.worker_share_sum /
             static_cast<double>(
                 std::max<std::size_t>(1, replan.worker_share_count)),
         "ratio"},
        {"core.publication_us_per_epoch", ledger.publication_us_per_epoch,
         "us"},
        {"baselines.assign_us_per_epoch", ledger.assign_us_per_epoch, "us"},
        {"baselines.lru_ns_per_request",
         ns_per_request("baselines.lru", request_size), "ns"},
        {"baselines.lfu_ns_per_request",
         ns_per_request("baselines.lfu", request_size), "ns"},
        {"baselines.pg_ns_per_request",
         ns_per_request("baselines.pg", request_size), "ns"},
        {"baselines.static_ns_per_request",
         ns_per_request("baselines.static", request_size), "ns"},
        {"sim.replay_ns_per_request",
         ns_per_request("sim.replay",
                        static_cast<double>(setup->replan_stream.size())),
         "ns"},
        {"serve.ns_per_request",
         ns_per_request("serve.request_path", request_size), "ns"},
        {"serve.plan_ms_p50", Median(served.plan_ms), "ms"},
        {"ledger.unattributed_share", ledger.unattributed_share, "ratio"},
        {"trace.overhead_share",
         Median(replan.traced_replay_seconds) /
                 Median(replan.replay_seconds) -
             1.0,
         "ratio"},
    };
    std::printf("ledger epochs=%zu plan_epoch_serial_ms=%.3f\n",
                ledger.epochs, ledger.plan_epoch_serial_ms);
    if (!args.spans_out.empty() &&
        !spans.WriteJsonl(args.spans_out, provenance)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   args.spans_out.c_str());
    }
  }

  for (const std::string& failure : gate.failures()) {
    std::fprintf(stderr, "correctness gate: %s\n", failure.c_str());
  }
  PrintResult(gate.passed(), boundaries + plan_rounds + requests,
              failed_boundaries + failed_rounds, metrics);
  return gate.passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <1-60> "
                 "--trace <0|1> [--spans-out <path>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
