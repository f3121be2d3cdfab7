#ifndef MFGCP_OBS_EXPORTER_H_
#define MFGCP_OBS_EXPORTER_H_

// Live introspection plane: a dependency-free embedded HTTP/1.0 admin
// endpoint serving the metrics registry and the serving runtime's recent
// epoch history to a pull-based scraper (Prometheus, curl, a load
// balancer's health probe). See OBSERVABILITY.md "Live introspection".
//
// Endpoints:
//   GET /         plain-text index of the routes below
//   GET /metrics  Prometheus text exposition (version 0.0.4) rendered
//                 from a wait-free MetricsSnapshot: counters as
//                 `<name>_total`, gauges verbatim, histograms as
//                 cumulative `_bucket{le=...}` / `_sum` / `_count`,
//                 plus the `mfgcp_build_info` provenance gauge
//   GET /healthz  200 "ok" while the exporter thread is serving
//   GET /readyz   200 once the first plan has published (503 before);
//                 flipped by core::PlanEpochInto via AdminSetReady
//   GET /epochz   JSON ring of the last N EpochRecords (oldest first;
//                 fields from obs/epoch_record.h)
//   GET /flightz  JSON list of flight-dump files (obs/flight_dump.h)
//
// Threading contract — the same one the rest of obs/ obeys: everything
// that allocates, formats, or touches a socket runs on the exporter's own
// thread (a blocking poll() accept loop, one connection at a time). The
// instrumented hot path never blocks on the exporter: tick-side feeding
// goes through the wait-free MFG_OBS_* record path, and the per-epoch
// RecordEpoch (plan-round granularity, never per tick/request) takes only
// a short POD-copy mutex. Scrapes capture the registry under its
// registration mutex, which recorders never take.
//
// The whole plane compiles out under -DMFGCP_OBS=OFF: this header is then
// empty of symbols, call sites are #if-gated, and the `admin_port=` bench
// key is inert.

#include "obs/metrics.h"  // for MFGCP_OBS_ENABLED via the build, and types

#if MFGCP_OBS_ENABLED

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/epoch_record.h"
#include "obs/snapshot.h"

namespace mfg::obs {

struct ExporterOptions {
  // Bind address; loopback by default — the admin plane is not meant to
  // be reachable off-box without an operator opting in.
  std::string bind_address = "127.0.0.1";
  // TCP port; 0 asks the kernel for an ephemeral port (query port()
  // after Start — tests use this to avoid fixed-port collisions).
  int port = 0;
  // Capacity of the /epochz ring (`epochz_capacity=` bench key).
  std::size_t epochz_capacity = 64;
};

class AdminExporter {
 public:
  AdminExporter() = default;
  ~AdminExporter();
  AdminExporter(const AdminExporter&) = delete;
  AdminExporter& operator=(const AdminExporter&) = delete;

  // The process-wide exporter the `admin_port=` key and ServeLoop start.
  // Leaked singleton, same pattern as Registry::Global().
  static AdminExporter& Global();

  // Binds + listens synchronously (so failures surface here, not on the
  // thread), registers the build.info gauge family, then spawns the
  // serving thread. FailedPrecondition if already active.
  common::Status Start(const ExporterOptions& options);

  // Wakes the poll loop, joins the thread, closes the socket. Idempotent.
  void Stop();

  bool active() const { return active_.load(std::memory_order_acquire); }
  // The bound port (meaningful while active; resolves port=0 requests).
  int port() const { return port_; }
  // Scrapes served since Start (all endpoints).
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // Appends one record to the /epochz ring (short POD-copy mutex; called
  // by ServeLoop once per publication). No-op when inactive.
  void RecordEpoch(const EpochRecord& record);

  // Pure renderers, exposed for tests and reusable without a socket.
  static std::string RenderPrometheus(const MetricsSnapshot& snapshot);
  static std::string RenderEpochJson(const std::vector<EpochRecord>& records,
                                     std::size_t capacity);

 private:
  void ServerMain();
  void HandleConnection(int fd);

  std::atomic<bool> active_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  ExporterOptions options_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // Self-pipe so Stop() interrupts poll().
  int port_ = 0;
  std::thread thread_;

  std::mutex ring_mutex_;
  std::vector<EpochRecord> ring_;  // epochz_capacity slots, preallocated.
  std::uint64_t ring_total_ = 0;   // Records ever written.

  // Exporter-thread scratch (reused across scrapes).
  MetricsSnapshot snapshot_;
  std::vector<EpochRecord> ring_copy_;
};

// Free-function façade used by instrumented layers so call sites stay
// one-liners. All are cheap no-ops while no exporter is active.
bool AdminActive();
int AdminPort();  // -1 while inactive.
void AdminRecordEpoch(const EpochRecord& record);

// Process-global readiness latch behind /readyz, independent of exporter
// lifetime: core::PlanEpochInto latches true on its first successful
// plan. Tests reset it with AdminSetReady(false).
void AdminSetReady(bool ready);
bool AdminReady();

}  // namespace mfg::obs

#endif  // MFGCP_OBS_ENABLED

#endif  // MFGCP_OBS_EXPORTER_H_
