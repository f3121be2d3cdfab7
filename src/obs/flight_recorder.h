#ifndef MFGCP_OBS_FLIGHT_RECORDER_H_
#define MFGCP_OBS_FLIGHT_RECORDER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

// Flight recorder: a wait-free, per-thread ring-buffer journal of
// structured solve-lifecycle events. Where the metrics registry answers
// "how many" and the trace session answers "how long", the flight recorder
// answers "what happened, in order, inside one content's solve" — the
// record a post-mortem needs when a slot lands on the recovery ladder.
//
// Events are keyed by (epoch, content, attempt), matching the
// fault-injection coordinates, plus a per-event (iter, v0, v1) payload
// whose meaning depends on the event type (see FlightEventType). The
// record path is wait-free and allocation-free: each recording thread owns
// one fixed-capacity ring (registered on its first event; rings are never
// deallocated, so the thread_local pointers stay valid for the process
// lifetime), a record is one relaxed fetch_add for the global sequence
// number plus plain stores into the thread's own slots. Draining
// (CollectInto / the flight_dump.h writer) runs on the epoch's calling
// thread after the worker pool has gone idle; the pool's own
// happens-before edge orders the ring writes before the drain, the same
// contract EpochRuntime's per-worker allocation counters rely on.
//
// Determinism: every event recorded under solve coordinates carries only
// lane-local, schedule-independent data, and all events of one (epoch,
// content) are produced by the single worker that claimed the slot — so
// the per-content event sequence is bit-identical at any parallelism and
// any batch width (guarded by flight_dump_test). kBlockClaim is the one
// scheduling-scope exception (block shapes depend on the worker count);
// CollectInto excludes it from per-content drains.
//
// Mirroring MFG_OBS_*: with -DMFGCP_OBS=OFF all MFG_FLIGHT_* macros reduce
// to unevaluated (void)sizeof(arg), while the journal class itself stays
// compiled and linkable for explicit callers.

#ifndef MFGCP_OBS_ENABLED
#define MFGCP_OBS_ENABLED 1
#endif

namespace mfg::obs {

// What one event describes; the (iter, v0, v1) payload per type:
enum class FlightEventType : std::uint8_t {
  // Worker claimed an SoA block. iter = block width, v0 = worker index.
  // Scheduling scope: excluded from per-content collection (block shapes
  // depend on the worker count, so these are not determinism-comparable).
  kBlockClaim = 0,
  // A ladder attempt's solve is about to start. iter = max_iterations,
  // v0 = relaxation (γ), v1 = tolerance — the (possibly relaxed) learning
  // controls of this attempt.
  kAttemptBegin,
  // One best-response fixed-point iteration (Alg. 2 line 6).
  // iter = iteration index (1-based), v0 = policy residual, v1 = value
  // residual.
  kIteration,
  // One backward HJB sweep finished. v0 = CFL substeps per output node,
  // v1 = sup |V(0, ·)| of the swept value surface.
  kHjbSweep,
  // One forward FPK sweep finished. v0 = CFL substeps per output node,
  // v1 = sup λ(T, ·) of the final (normalized) density row.
  kFpkSweep,
  // A solver left the finite range. detail = kFlightDivergenceHjb /
  // kFlightDivergenceFpk, iter = the diverged time node.
  kDivergence,
  // Best-response fixed point finished. detail = converged (1/0),
  // iter = iterations run, v0 = last policy residual, v1 = last value
  // residual.
  kSolveEnd,
  // Recovery-ladder decision for the slot. detail = the SlotOutcome enum
  // value, attempt/v0 = solve attempts consumed, v1 = the slot status code.
  kLadder,
  // An armed fault plan fired. detail = the FaultSite enum value.
  kFaultInjected,
};
inline constexpr std::size_t kNumFlightEventTypes = 9;

// kDivergence detail codes.
inline constexpr std::uint8_t kFlightDivergenceHjb = 0;
inline constexpr std::uint8_t kFlightDivergenceFpk = 1;

// "block_claim", "attempt_begin", "iteration", "hjb_sweep", "fpk_sweep",
// "divergence", "solve_end", "ladder", "fault".
std::string_view FlightEventTypeName(FlightEventType type);

struct FlightEvent {
  std::uint64_t seq = 0;  // Global record order (relaxed fetch_add).
  std::uint32_t epoch = 0;
  std::uint32_t content = 0;
  std::uint32_t iter = 0;
  std::uint16_t attempt = 0;
  FlightEventType type = FlightEventType::kBlockClaim;
  std::uint8_t detail = 0;
  double v0 = 0.0;
  double v1 = 0.0;
};

// Sup-norm helper for sweep-event payloads. Lives here (not math_util) so
// event argument expressions stay next to the macro that gates their
// evaluation behind FlightJournal::Enabled().
inline double FlightMaxAbs(std::span<const double> values) {
  double max_abs = 0.0;
  for (double v : values) max_abs = std::max(max_abs, std::fabs(v));
  return max_abs;
}

// The same over `count` values `stride` apart: one lane's row of a
// batched [node][lane] field.
inline double FlightMaxAbs(const double* values, std::size_t count,
                           std::size_t stride) {
  double max_abs = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    max_abs = std::max(max_abs, std::fabs(values[i * stride]));
  }
  return max_abs;
}

class FlightJournal {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  // The process-wide journal (never destroyed).
  static FlightJournal& Get();

  // Recording toggle, default on. One relaxed load; the MFG_FLIGHT_* event
  // macros check it before evaluating their payload expressions.
  static bool Enabled();
  void SetEnabled(bool enabled);

  // Records under the thread's ambient FlightScope coordinates; a no-op
  // when no scope is active (direct solver use outside an epoch).
  void RecordScoped(FlightEventType type, std::uint8_t detail,
                    std::size_t content, std::uint32_t iter, double v0,
                    double v1);

  // Records with explicit coordinates, ignoring the ambient scope.
  void RecordAt(FlightEventType type, std::uint8_t detail, std::size_t epoch,
                std::size_t content, std::size_t attempt, std::uint32_t iter,
                double v0, double v1);

  // Appends every retained event of (epoch, content) across all rings to
  // `out`, ordered by seq; kBlockClaim events are excluded (see above).
  // Returns the number appended. Allocates (drain path); only call while
  // no other thread is recording into the rings being read — after
  // PlanEpochInto returns, the pool-idle edge guarantees this.
  std::size_t CollectInto(std::size_t epoch, std::size_t content,
                          std::vector<FlightEvent>& out) const;

  // Capacity (events) of rings registered after this call; existing rings
  // keep their size. Default kDefaultRingCapacity.
  void SetRingCapacity(std::size_t capacity);
  std::size_t ring_capacity() const;
  std::size_t num_rings() const;

  // Testing: empties every ring (and reshapes them to `capacity` when
  // non-zero) without deallocating — live thread_local ring pointers stay
  // valid. Only call while no other thread is recording.
  void ResetForTesting(std::size_t capacity = 0);

 private:
  FlightJournal() = default;
};

// RAII thread-local (epoch, attempt) coordinates for RecordScoped; the
// epoch worker opens one per solve attempt (content is always explicit at
// the event site — batched solvers record several contents under one
// scope). Scopes nest and restore on destruction, like ScopedFaultScope.
class FlightScope {
 public:
  FlightScope(std::size_t epoch, std::size_t attempt);
  ~FlightScope();

  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

 private:
  bool saved_active_;
  std::size_t saved_epoch_;
  std::size_t saved_attempt_;
};

}  // namespace mfg::obs

#define MFG_FLIGHT_CONCAT_INNER_(a, b) a##b
#define MFG_FLIGHT_CONCAT_(a, b) MFG_FLIGHT_CONCAT_INNER_(a, b)

#if MFGCP_OBS_ENABLED

// Declares the thread-local (epoch, attempt) flight coordinates for the
// rest of the enclosing scope.
#define MFG_FLIGHT_SCOPE(epoch, attempt)                  \
  ::mfg::obs::FlightScope MFG_FLIGHT_CONCAT_(             \
      mfg_flight_scope_, __LINE__)(epoch, attempt)

// Records one event under the ambient scope. `type` is a bare
// FlightEventType enumerator. Payload expressions are only evaluated when
// recording is enabled.
#define MFG_FLIGHT_EVENT(type, detail, content, iter, v0, v1)           \
  do {                                                                  \
    if (::mfg::obs::FlightJournal::Enabled()) {                         \
      ::mfg::obs::FlightJournal::Get().RecordScoped(                    \
          ::mfg::obs::FlightEventType::type, (detail), (content),       \
          (iter), (v0), (v1));                                          \
    }                                                                   \
  } while (false)

// Records one event with explicit coordinates (ladder decisions, block
// claims, fault hits — sites that know all three coordinates directly).
#define MFG_FLIGHT_EVENT_AT(type, detail, epoch, content, attempt, iter, \
                            v0, v1)                                      \
  do {                                                                   \
    if (::mfg::obs::FlightJournal::Enabled()) {                          \
      ::mfg::obs::FlightJournal::Get().RecordAt(                         \
          ::mfg::obs::FlightEventType::type, (detail), (epoch),          \
          (content), (attempt), (iter), (v0), (v1));                     \
    }                                                                    \
  } while (false)

#else  // !MFGCP_OBS_ENABLED

// Arguments go under sizeof, unevaluated, as in obs.h; `type` is a bare
// enumerator name and is dropped.
#define MFG_FLIGHT_SCOPE(epoch, attempt) \
  (void)sizeof(epoch), (void)sizeof(attempt)
#define MFG_FLIGHT_EVENT(type, detail, content, iter, v0, v1)     \
  (void)sizeof(detail), (void)sizeof(content), (void)sizeof(iter), \
      (void)sizeof(v0), (void)sizeof(v1)
#define MFG_FLIGHT_EVENT_AT(type, detail, epoch, content, attempt, iter, \
                            v0, v1)                                      \
  (void)sizeof(detail), (void)sizeof(epoch), (void)sizeof(content),     \
      (void)sizeof(attempt), (void)sizeof(iter), (void)sizeof(v0),       \
      (void)sizeof(v1)

#endif  // MFGCP_OBS_ENABLED

#endif  // MFGCP_OBS_FLIGHT_RECORDER_H_
