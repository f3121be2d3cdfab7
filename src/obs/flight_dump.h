#ifndef MFGCP_OBS_FLIGHT_DUMP_H_
#define MFGCP_OBS_FLIGHT_DUMP_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

// JSONL post-mortem writer for the flight recorder (flight_recorder.h).
//
// When a dump directory is configured, PlanEpochInto calls WriteFlightDump
// for every epoch that degraded a slot (carry-forward / fallback / failed),
// draining the last-N retained events of each affected content into one
// `flight_epoch<E>_<K>.jsonl` file. The first line is a `flight_header`
// object naming the epoch and covered contents; each following line is one
// `event` object whose `span_id` equals the content id — the same value the
// Chrome-trace "PlanEpoch.SolveContent" spans carry in their args, so a
// dump line can be matched to its span in a trace viewer.
//
// Dumps are rate-limited: each (epoch, content) pair is dumped at most
// once per process, and at most `max_dumps` files are written overall. Validated by
// scripts/check_flight_dump.py.

namespace mfg::obs {

struct FlightDumpOptions {
  // Directory for dump files; empty disables dumping entirely.
  std::string directory;
  // Process-wide cap on dump files (`flight_dump_max=` bench key).
  std::size_t max_dumps = 16;
  // Last-N events retained per content in a dump (`flight_dump_events=`).
  std::size_t max_events_per_content = 64;
  // Also dump epochs with no degraded slot (`flight_dump_all=on`): the
  // on-demand mode — PlanEpochInto then dumps every active content.
  bool dump_healthy = false;
};

void SetFlightDumpOptions(FlightDumpOptions options);
FlightDumpOptions GetFlightDumpOptions();

// Cheap gate for the epoch hot path: true once a directory is configured
// (one relaxed load; no lock).
bool FlightDumpConfigured();

// Writes one dump for `epoch` covering `contents` (minus pairs already
// dumped), honoring the caps above. Returns the file path, or "" when
// nothing was written (not configured, recording disabled, everything
// already dumped, or the cap is exhausted). Thread-safe; allocates (dump
// path only).
std::string WriteFlightDump(std::size_t epoch,
                            std::span<const std::size_t> contents);

// Lists the `flight_*.jsonl` dump files currently present in the
// configured directory, sorted ascending by name. Empty when no directory
// is configured (or it does not exist). Allocates — meant for cold
// surfaces like the admin /flightz endpoint, never the epoch path.
std::vector<std::string> ListFlightDumps();

// Testing: clears options, the (epoch, content) ledger, and the file count.
void ResetFlightDumpStateForTesting();

}  // namespace mfg::obs

#endif  // MFGCP_OBS_FLIGHT_DUMP_H_
