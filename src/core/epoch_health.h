#ifndef MFGCP_CORE_EPOCH_HEALTH_H_
#define MFGCP_CORE_EPOCH_HEALTH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "content/catalog.h"
#include "obs/epoch_record.h"

// Per-epoch health summary assembled by MfgCpFramework::PlanEpochInto:
// the plan's obs::EpochRecord (obs/epoch_record.h — ladder outcome
// tallies, core.best_response.* counter deltas spanning exactly this
// epoch, pool allocations, equilibrium-probe results) plus the
// variable-length degraded-content list and flight-dump path. One report
// answers the operator question "did this epoch degrade?" without diffing
// registry dumps by hand; FormatHealthLine renders it as a single log line
// and the MetricsStreamer's windows carry the same counters as a time
// series.
//
// Tallies are sourced from EpochPlanBuffer::outcomes, so they match the
// core.epoch.* counters the ladder bumps exactly (guarded by
// epoch_health_test under a seeded fault plan at parallelism 1/2/8). The
// counter-delta fields read 0 when built with -DMFGCP_OBS=OFF; the
// outcome tallies do not depend on the telemetry layer.
//
// PlanEpochInto fills the record's epoch and planner group and zeroes the
// serving group, which the serving runtime (serve/serve_loop.h) fills on
// its own copy.

namespace mfg::core {

struct EpochHealthReport : obs::EpochRecord {
  // Contents not served by a solve this epoch (carried forward, fallback,
  // or failed), ascending. Retried contents recovered by solving, so they
  // are tallied but not listed here — matching the
  // core.epoch.degraded_contents gauge.
  std::vector<content::ContentId> degraded_contents;

  // Path of the flight-recorder post-mortem written for this epoch, ""
  // when none (no dump directory configured, epoch healthy, or the dump
  // rate limiter suppressed it). See obs/flight_dump.h.
  std::string flight_dump_path;

  // The core.epoch.degraded_contents gauge value for this epoch.
  std::size_t DegradedCount() const {
    return carried_forward + fallback + failed;
  }
  bool Healthy() const {
    return retried == 0 && DegradedCount() == 0 &&
           best_response_nonconverged == 0;
  }
};

// One-line rendering for logs, e.g.
//   epoch 7: active=16 wall=0.245s outcomes solved=14 retried=1
//   carried_forward=1 fallback=0 failed=0 br solves=19 converged=18
//   nonconverged=1 allocs=0 eq probed=4 gap=0.0012 rel=3.1e-05
//   cons=0.0044 price=0.52 degraded=[3] dump=dumps/flight_epoch7_0.jsonl
// (single line; the eq block appears only when eq_probed > 0, the serve
// tick-percentile block only when serve_ticks > 0, the degraded list and
// dump path only when non-empty).
std::string FormatHealthLine(const EpochHealthReport& report);

// Process-wide toggle: when enabled, PlanEpochInto logs
// FormatHealthLine(report) at INFO after every epoch. Wired to the shared
// bench key `health_log=on` (bench_common.h).
void SetEpochHealthLogging(bool enabled);
bool EpochHealthLoggingEnabled();

}  // namespace mfg::core

#endif  // MFGCP_CORE_EPOCH_HEALTH_H_
