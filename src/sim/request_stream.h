#ifndef MFGCP_SIM_REQUEST_STREAM_H_
#define MFGCP_SIM_REQUEST_STREAM_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "content/trace.h"

// Arrival streams for the request-level simulator (sim/request_engine.h):
// a pre-generated, flat SoA sequence of timestamped content requests.
// Generating the stream up front (instead of drawing inside the replay
// loop) keeps the replay hot path RNG-free, makes a stream seed the whole
// scenario's identity, and lets every scheme replay the *identical*
// request sequence (common random numbers, like Simulator::Run).
//
// Two arrival processes:
//   kPoisson — a homogeneous Poisson process at `arrival_rate` with
//     content drawn i.i.d. from a Zipf(iota) prior (the paper's request
//     model at request granularity).
//   kTrace — the same Poisson clock, but content drawn from the
//     per-day weights of a content::Trace; day d covers sim time
//     [d·trace_day_period, (d+1)·trace_day_period), cycling modulo the
//     trace length. This is the trace-driven mode of EXPERIMENTS.md's
//     baseline gauntlet.
//
// Determinism: one seed, one single-threaded generation pass, one stream —
// bit-identical on every platform the Rng is (xoshiro256**).

namespace mfg::sim {

enum class ArrivalProcess : std::uint8_t {
  kPoisson = 0,
  kTrace,
};

// "poisson" / "trace"; returns false (out untouched) on anything else.
bool ParseArrivalProcess(std::string_view text, ArrivalProcess& out);

struct RequestStreamOptions {
  std::size_t num_contents = 20;      // K.
  std::size_t num_requests = 1 << 20; // Stream length.
  double arrival_rate = 1000.0;       // Mean arrivals per unit time.
  double zipf_iota = 0.8;             // Popularity skew (kPoisson).
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  std::uint64_t seed = 42;
  // Sim-time span of one trace day (kTrace).
  double trace_day_period = 100.0;
};

// Flat SoA stream: request i arrived at arrival_time[i] (monotone
// nondecreasing) for content content[i]. No per-event nodes — the replay
// loop walks two parallel arrays.
struct RequestStream {
  std::vector<double> arrival_time;
  std::vector<std::uint32_t> content;

  std::size_t size() const { return content.size(); }
  bool empty() const { return content.empty(); }

  // Per-content request counts of [begin, end); `counts` is resized to
  // num_contents and zeroed (allocation-free once warmed). The offline
  // upper bound and tests consume this.
  void CountRequestsInto(std::size_t begin, std::size_t end,
                         std::size_t num_contents,
                         std::vector<std::uint64_t>& counts) const;
};

// Incremental tail reader over a RequestStream: sim::RequestLedger drains
// through it — the serving runtime (serve/serve_loop.h) tick by tick as
// simulated time advances, ReplayInto in one pass. The cursor is a bare
// index — binding and advancing never allocate — and yields requests in
// arrival order.
class RequestStreamCursor {
 public:
  RequestStreamCursor() = default;
  explicit RequestStreamCursor(const RequestStream& stream) { Bind(stream); }

  // Rebinds to `stream` (borrowed; must outlive the cursor) and rewinds.
  void Bind(const RequestStream& stream) {
    stream_ = &stream;
    position_ = 0;
  }

  // For index-walking drains (sim::RequestLedger::DrainUntil).
  const RequestStream* stream() const { return stream_; }
  void Seek(std::size_t position) { position_ = position; }

  bool AtEnd() const {
    return stream_ == nullptr || position_ >= stream_->size();
  }
  std::size_t position() const { return position_; }

  // Arrival time of the next unread request; +inf when drained.
  double NextArrival() const {
    return AtEnd() ? std::numeric_limits<double>::infinity()
                   : stream_->arrival_time[position_];
  }

 private:
  const RequestStream* stream_ = nullptr;
  std::size_t position_ = 0;
};

// Generates a stream into caller storage, reusing its capacity. For
// kTrace, `trace` must be non-null with at least one day covering
// options.num_contents categories (extra categories are ignored); for
// kPoisson it is ignored.
common::Status GenerateRequestStreamInto(const RequestStreamOptions& options,
                                         const content::Trace* trace,
                                         RequestStream& out);

// Allocating convenience wrapper.
common::StatusOr<RequestStream> GenerateRequestStream(
    const RequestStreamOptions& options, const content::Trace* trace = nullptr);

}  // namespace mfg::sim

#endif  // MFGCP_SIM_REQUEST_STREAM_H_
