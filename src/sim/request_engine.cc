#include "sim/request_engine.h"

#include <chrono>
#include <limits>

#include "common/logging.h"
#include "core/fault_injection.h"
#include "obs/obs.h"

namespace mfg::sim {

common::Status ReplanFaultCheck(std::size_t epoch) {
  MFG_FAULT_SCOPE(epoch, 0, 0);
  MFG_FAULT_POINT(kReplan);
  return common::Status::Ok();
}

common::Status ValidateRequestEngineOptions(
    const RequestEngineOptions& options) {
  if (options.num_contents == 0) {
    return common::Status::InvalidArgument("num_contents must be positive");
  }
  if (options.content_size_mb <= 0.0 || options.edge_rate_mb <= 0.0 ||
      options.backhaul_rate_mb <= 0.0 || options.backhaul_latency < 0.0) {
    return common::Status::InvalidArgument(
        "delay model parameters must be positive");
  }
  if (options.epoch_period < 0.0) {
    return common::Status::InvalidArgument("epoch_period must be >= 0");
  }
  return common::Status::Ok();
}

void RequestLedger::Reset(const RequestEngineOptions& options,
                          double period) {
  stats_ = RequestReplayStats{};
  counts_.assign(options.num_contents, 0);
  hit_delay_ = options.content_size_mb / options.edge_rate_mb;
  miss_delay_ = options.backhaul_latency +
                options.content_size_mb / options.backhaul_rate_mb;
  miss_backhaul_mb_ = options.content_size_mb;
  period_ = period;
  next_boundary_ =
      period > 0.0 ? period : std::numeric_limits<double>::infinity();
}

common::Status RequestEngine::ReplayInto(const RequestStream& stream,
                                         baselines::RequestCachePolicy& policy,
                                         ReplanHook* hook,
                                         Workspace& workspace,
                                         RequestReplayStats& stats) const {
  if (stream.empty()) {
    return common::Status::InvalidArgument("request stream is empty");
  }
  if (auto status = ValidateRequestEngineOptions(options_); !status.ok()) {
    return status;
  }
  workspace.Reset(options_, hook != nullptr ? options_.epoch_period : 0.0);

  const auto replay_start = std::chrono::steady_clock::now();
  RequestStreamCursor cursor(stream);
  baselines::RequestCachePolicy* serving = &policy;
  const common::Status drained = workspace.DrainUntil(
      cursor, std::numeric_limits<double>::infinity(), serving, [&] {
        // A failed replan (kReplan fault or a planner error past the
        // recovery ladder) carries the previous placement forward.
        const std::size_t epoch = workspace.epoch();
        common::Status replanned = ReplanFaultCheck(epoch);
        if (replanned.ok()) {
          replanned =
              hook->OnEpochBoundary(epoch, workspace.epoch_counts(), policy);
        }
        if (!replanned.ok()) {
          workspace.CountReplanFault();
          MFG_OBS_COUNT("sim.request.replan_faults", 1);
          MFG_LOG(WARNING) << "request replay epoch " << epoch
                           << " replan degraded to previous placement: "
                           << replanned;
        }
        MFG_OBS_COUNT("sim.request.replans", 1);
      });
  stats = workspace.stats();
  stats.horizon = stream.arrival_time.back();
  if (!drained.ok()) return drained;

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    replay_start)
          .count();
  // Aggregate instruments only — one counter bump per replay (and one per
  // epoch boundary above), never per request, so the record path cannot
  // dent the >=1M requests/s target.
  MFG_OBS_COUNT("sim.request.requests", stats.requests);
  MFG_OBS_COUNT("sim.request.hits", stats.hits);
  MFG_OBS_COUNT("sim.request.misses", stats.misses);
  MFG_OBS_GAUGE_SET("sim.request.last_hit_ratio", stats.HitRatio());
  MFG_OBS_OBSERVE("sim.request.replay_seconds", seconds);
  return common::Status::Ok();
}

}  // namespace mfg::sim
