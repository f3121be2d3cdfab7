#ifndef MFGCP_SIM_REQUEST_ENGINE_H_
#define MFGCP_SIM_REQUEST_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "baselines/request_cache.h"
#include "common/status.h"
#include "sim/request_stream.h"

// The discrete-event request replay engine: streams a RequestStream
// through one cache policy, scoring the paper's request-level headline
// metrics — cache hit ratio, access delay, and backhaul load — and
// re-planning at epoch boundaries through a caller-supplied hook (the
// MFG-CP scheme routes that hook into MfgCpFramework::PlanEpochInto; see
// sim/gauntlet.h). ARCHITECTURE.md §7 describes the layering.
//
// Hot-path contract (mirrors the *Into solver conventions of ROADMAP.md):
//   - ReplayInto(Workspace&) reuses caller storage and is allocation-free
//     once the workspace and the policy have warmed up
//     (tests/sim/request_alloc_test.cc pins allocs_per_replay=0) —
//     including across MFG-CP replans at any planner width, which ride
//     PlanEpochInto's own zero-allocation path.
//   - The replay loop itself is RNG-free and single-threaded; all
//     parallelism lives behind the replan hook (the epoch worker pool).
//     Statistics are therefore bit-identical for a given stream seed at
//     any planner parallelism and batch width (the determinism contract
//     of epoch_runtime.h, extended to request replay; guarded by
//     tests/sim/gauntlet_test.cc).
//   - The epoch-boundary replan is a named fault site
//     (faults::FaultSite::kReplan): an injected replan failure degrades
//     the epoch to the previous placement instead of failing the replay,
//     mirroring the planner's carry-forward ladder.
//
// Delay/backhaul model (onlineJCCP-style accounting at unit-size
// contents): a hit is served from the edge cache at `edge_rate_mb`; a
// miss pays `backhaul_latency` plus the transfer at `backhaul_rate_mb`
// and adds the content size to the backhaul ledger.

namespace mfg::sim {

struct RequestEngineOptions {
  std::size_t num_contents = 20;   // K; must match the stream's catalog.
  std::size_t cache_capacity = 4;  // Resident contents per edge cache.
  double content_size_mb = 100.0;  // Homogeneous Q_k.
  double edge_rate_mb = 200.0;     // Edge service rate, MB per unit time.
  double backhaul_rate_mb = 40.0;  // Backhaul transfer rate.
  double backhaul_latency = 0.5;   // Fixed round trip per miss.
  // Sim-time between replans; 0 = never replan (static schemes). The
  // first boundary is at t = epoch_period.
  double epoch_period = 0.0;
};

// Cumulative ledger of one replay.
struct RequestReplayStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double total_delay = 0.0;    // Summed access delay, unit-time.
  double backhaul_mb = 0.0;    // Bytes pulled over the backhaul.
  std::uint64_t replans = 0;        // Epoch boundaries crossed.
  std::uint64_t replan_faults = 0;  // Boundaries degraded to the previous
                                    // placement (kReplan faults or hook
                                    // errors).
  double horizon = 0.0;        // Arrival time of the last request.

  double HitRatio() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
  double MeanDelay() const {
    return requests == 0 ? 0.0 : total_delay / static_cast<double>(requests);
  }
  // Backhaul traffic per unit sim-time.
  double BackhaulRate() const {
    return horizon <= 0.0 ? 0.0 : backhaul_mb / horizon;
  }
};

// Validates the delay-model and catalog fields shared by every consumer
// of RequestEngineOptions (ReplayInto and the serving runtime), so both
// paths reject a bad configuration with the same message.
common::Status ValidateRequestEngineOptions(const RequestEngineOptions& options);

// Epoch-boundary replan seam. OnEpochBoundary runs on the replay thread
// when sim time crosses an epoch boundary, with the per-content request
// counts observed during the finished epoch; it typically re-plans and
// re-assigns `policy`'s placement. A non-ok return (or an injected
// kReplan fault) leaves the previous placement serving the next epoch and
// bumps RequestReplayStats::replan_faults — degraded, never fatal.
class ReplanHook {
 public:
  virtual ~ReplanHook() = default;
  virtual common::Status OnEpochBoundary(
      std::size_t epoch, std::span<const std::uint64_t> epoch_counts,
      baselines::RequestCachePolicy& policy) = 0;
};

// The kReplan fault seam of every epoch boundary, ReplayInto's and
// serve::ServeLoop's: coordinates (epoch, content 0, attempt 0). Non-ok =
// the boundary plans nothing and the previous placement serves on.
common::Status ReplanFaultCheck(std::size_t epoch);

// The one request loop: per-epoch counts, the hit/delay/backhaul ledger,
// the per-request costs and the epoch-boundary clock. ReplayInto drains a
// whole stream through it in one call and serve::ServeLoop tick by tick,
// so both produce the same ledger by construction.
//
// A boundary at time b fires before the first request arriving at >= b,
// or at `until` >= b when requests remain past it; never after the final
// request. A content id outside the catalog stops the drain with
// InvalidArgument, the cursor on that request: stats() then holds the
// ledger up to the rejected request, and both drivers report it so.
class RequestLedger {
 public:
  // Zeroes the ledger and sizes the counts (allocation-free once sized);
  // the first boundary is at t = period, 0 = never.
  void Reset(const RequestEngineOptions& options, double period);

  // Serves the cursor's requests arriving by `until` through `serving`.
  // on_boundary() sees the finished epoch's epoch()/epoch_counts() and may
  // re-point `serving` (a buffer swap), which is re-read after it returns.
  // Policy is the caller's static type, so a final cache is not called
  // through the vtable.
  template <class Policy, class OnBoundary>
  common::Status DrainUntil(RequestStreamCursor& cursor, double until,
                            Policy*& serving, OnBoundary&& on_boundary);

  void CountReplanFault() { ++stats_.replan_faults; }

  // Every field but horizon, which the driver owns; replans = epoch().
  const RequestReplayStats& stats() const { return stats_; }
  std::span<const std::uint64_t> epoch_counts() const { return counts_; }
  std::size_t epoch() const { return stats_.replans; }
  double next_boundary() const { return next_boundary_; }
  double period() const { return period_; }

 private:
  RequestReplayStats stats_;
  std::vector<std::uint64_t> counts_;
  double hit_delay_ = 0.0;
  double miss_delay_ = 0.0;
  double miss_backhaul_mb_ = 0.0;
  double period_ = 0.0;
  double next_boundary_ = std::numeric_limits<double>::infinity();
};

template <class Policy, class OnBoundary>
common::Status RequestLedger::DrainUntil(RequestStreamCursor& cursor,
                                         double until, Policy*& serving,
                                         OnBoundary&& on_boundary) {
  if (cursor.AtEnd()) return common::Status::Ok();
  // Index walk with the loop invariants in locals; summing in arrival
  // order fixes the floating-point accumulation order.
  const double* arrival = cursor.stream()->arrival_time.data();
  const std::uint32_t* content = cursor.stream()->content.data();
  const std::size_t n = cursor.stream()->size();
  std::uint64_t* counts = counts_.data();
  const std::size_t num_contents = counts_.size();
  const double hit_delay = hit_delay_;
  const double miss_delay = miss_delay_;
  const double miss_backhaul_mb = miss_backhaul_mb_;
  const std::size_t start = cursor.position();
  std::size_t i = start;
  Policy* policy = serving;
  double boundary = next_boundary_;
  std::uint64_t hits = stats_.hits;
  double total_delay = stats_.total_delay;
  double backhaul_mb = stats_.backhaul_mb;
  common::Status status = common::Status::Ok();
  while (i < n) {
    const double t = arrival[i];
    if (t >= boundary) {
      if (boundary > until) break;
      on_boundary();
      std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
      boundary = next_boundary_ += period_;
      ++stats_.replans;
      policy = serving;
      continue;
    }
    if (t > until) break;
    const std::uint32_t k = content[i];
    if (k >= num_contents) {
      status = common::Status::InvalidArgument(
          "stream content id out of catalog range");
      break;
    }
    ++counts[k];
    if (policy->OnRequest(k)) {
      ++hits;
      total_delay += hit_delay;
    } else {
      total_delay += miss_delay;
      backhaul_mb += miss_backhaul_mb;
    }
    ++i;
  }
  cursor.Seek(i);
  stats_.requests += i - start;
  stats_.hits = hits;
  stats_.misses = stats_.requests - hits;
  stats_.total_delay = total_delay;
  stats_.backhaul_mb = backhaul_mb;
  return status;
}

class RequestEngine {
 public:
  // Long-lived replay scratch, reused across replays.
  using Workspace = RequestLedger;

  explicit RequestEngine(const RequestEngineOptions& options)
      : options_(options) {}

  // Replays `stream` through `policy`, accumulating into `stats` (which
  // is reset first). `hook` may be null (no replanning even when
  // epoch_period > 0). The policy must already be Reset to the engine's
  // catalog shape. A rejected content id returns InvalidArgument with
  // `stats` holding the ledger up to that request.
  common::Status ReplayInto(const RequestStream& stream,
                            baselines::RequestCachePolicy& policy,
                            ReplanHook* hook, Workspace& workspace,
                            RequestReplayStats& stats) const;

  const RequestEngineOptions& options() const { return options_; }

 private:
  RequestEngineOptions options_;
};

}  // namespace mfg::sim

#endif  // MFGCP_SIM_REQUEST_ENGINE_H_
