#ifndef MFGCP_CORE_FAULT_INJECTION_H_
#define MFGCP_CORE_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

// Deterministic fault-injection seam for the epoch solve path.
//
// The recovery ladder in MfgCpFramework::PlanEpochInto (retry -> carry
// forward -> static fallback; see ARCHITECTURE.md §5) is only testable if
// a per-content solve can be made to fail on demand. This module provides
// named hook points along that path — params build, learner (re)bind,
// solve entry, the HJB/FPK inner steps, and forced non-convergence — that
// an armed FaultPlan can force to fail for chosen (epoch, content) pairs.
//
// Mirroring the MFG_OBS_* pattern, every hook compiles through a macro and
// a single switch strips the whole seam:
//
//   cmake -DMFGCP_FAULTS=OFF  ->  MFGCP_FAULTS_ENABLED == 0  ->
//   MFG_FAULT_POINT expands to (void)0, MFG_FAULT_FORCED to `false` and
//   MFG_FAULT_SCOPE to unevaluated sizeof operands, so stripped builds
//   carry no injection code at all.
//
// Determinism contract: whether a hook fires depends only on the armed
// plan and the (site, epoch, content, attempt) coordinates of the solve —
// never on the worker id, the slot->worker schedule, or wall time. An
// injected-fault epoch therefore produces bit-identical plans at any
// `parallelism` (guarded by epoch_degradation_test).
//
// Hot-path cost with the seam compiled in but no plan armed: one relaxed
// atomic load per hook, no allocation — the `allocs_per_epoch=0` contract
// of the no-fault path survives MFGCP_FAULTS=ON.

namespace mfg::core::faults {

// Named sites along the per-content solve path of Alg. 1 line 2.
enum class FaultSite : std::uint8_t {
  kParamsBuild = 0,   // MfgCpFramework::ContentParams.
  kRebind,            // BestResponseLearner Create()/Rebind().
  kSolve,             // BestResponseLearner::SolveInto entry.
  kHjbStep,           // HJB sweep inside the fixed-point loop.
  kFpkStep,           // FPK sweep inside the fixed-point loop.
  kNonConvergence,    // Forces converged=false on an otherwise-clean solve.
  kReplan,            // Epoch-boundary replan in the request engine
                      // (sim/request_engine.h) — the seam between request
                      // replay and PlanEpochInto. A hit degrades the epoch
                      // to the previous placement instead of failing the
                      // replay.
  kPlanDeadline,      // Wall-clock planning deadline in the serving
                      // runtime (serve/serve_loop.h) — a forced-state
                      // site: a hit makes the finished plan count as
                      // having overrun its deadline, so publication is
                      // deferred to the next epoch boundary while the
                      // previous plan keeps serving.
};
inline constexpr std::size_t kNumFaultSites = 8;

// "params_build", "rebind", "solve", "hjb_step", "fpk_step",
// "non_convergence", "replan", "plan_deadline".
std::string_view FaultSiteName(FaultSite site);

// Parses a FaultSiteName back into `out`; returns false (out untouched)
// on any other input.
bool ParseFaultSite(std::string_view text, FaultSite& out);

// One armed fault: site `site` fails for content `content` during epoch
// `epoch` (the planning buffer's epoch_index) on every ladder attempt
// below `fail_attempts`. `fail_attempts = 1` models a transient fault the
// first relaxed retry survives; kAlways models a hard fault that pushes
// the ladder to carry-forward / fallback.
struct FaultSpec {
  static constexpr std::size_t kAlways = static_cast<std::size_t>(-1);

  FaultSite site = FaultSite::kSolve;
  std::size_t epoch = 0;
  std::size_t content = 0;
  std::size_t fail_attempts = kAlways;
  // Status code of the injected failure. kNumericalError is recoverable
  // by the ladder; kInvalidArgument exercises the propagate-as-is path.
  common::StatusCode code = common::StatusCode::kNumericalError;
};

// An immutable-while-armed set of FaultSpecs. Lookup is purely functional
// in (site, epoch, content): no mutable firing state, so concurrent
// workers observe identical decisions.
class FaultPlan {
 public:
  FaultPlan() = default;

  // Controls for the seeded generator below.
  struct SeedOptions {
    std::uint64_t seed = 0;
    std::size_t num_epochs = 1;
    std::size_t num_contents = 1;
    // Probability that a given (epoch, content) pair gets a fault.
    double fault_rate = 0.1;
    // Candidate sites; empty = all injectable sites.
    std::vector<FaultSite> sites;
    // A drawn fault is permanent (fail_attempts = kAlways) with this
    // probability; otherwise fail_attempts is drawn from [1, 3].
    double permanent_fraction = 0.25;
  };

  // Generates a reproducible plan from a seed: the same options yield the
  // same specs, so fault scenarios are shareable as a single integer.
  static FaultPlan FromSeed(const SeedOptions& options);

  void Add(const FaultSpec& spec) { specs_.push_back(spec); }

  // The spec matching (site, epoch, content), or nullptr. Earliest match
  // wins when specs overlap.
  const FaultSpec* Find(FaultSite site, std::size_t epoch,
                        std::size_t content) const;

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

 private:
  std::vector<FaultSpec> specs_;
};

// Arms `plan` globally for the lifetime of the scope (one plan at a time;
// nested arming restores the previous plan on destruction). The plan must
// outlive the scope and must not be mutated while armed.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultPlan& plan);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  const FaultPlan* previous_;
};

// Thread-local solve coordinates consulted by the hooks. The epoch worker
// opens one scope per ladder attempt (via MFG_FAULT_SCOPE); hooks reached
// outside any scope — direct learner use, benches — never fire.
class ScopedFaultScope {
 public:
  ScopedFaultScope(std::size_t epoch, std::size_t content,
                   std::size_t attempt);
  ~ScopedFaultScope();

  ScopedFaultScope(const ScopedFaultScope&) = delete;
  ScopedFaultScope& operator=(const ScopedFaultScope&) = delete;

 private:
  // Previous thread coordinates, restored on destruction (scopes nest).
  bool saved_active_;
  std::size_t saved_epoch_;
  std::size_t saved_content_;
  std::size_t saved_attempt_;
};

// Hook bodies behind MFG_FAULT_POINT / MFG_FAULT_FORCED. Check returns
// the injected failure for `site` at the current thread's coordinates (Ok
// when unarmed, out of scope, or unmatched); Fires is the boolean variant
// for sites that force a state instead of an error (kNonConvergence).
common::Status Check(FaultSite site);
bool Fires(FaultSite site);

// Total injected failures since the last Reset — a cheap way for tests to
// assert a scenario actually exercised the seam.
std::size_t InjectedFaultCount();
void ResetInjectedFaultCount();

}  // namespace mfg::core::faults

#ifndef MFGCP_FAULTS_ENABLED
#define MFGCP_FAULTS_ENABLED 1
#endif

#if MFGCP_FAULTS_ENABLED

// Fails the enclosing Status/StatusOr-returning function with the injected
// error when the armed plan targets `site` at the current coordinates.
#define MFG_FAULT_POINT(site)                                          \
  do {                                                                 \
    ::mfg::common::Status mfg_fault_status_ =                          \
        ::mfg::core::faults::Check(::mfg::core::faults::FaultSite::site); \
    if (!mfg_fault_status_.ok()) return mfg_fault_status_;             \
  } while (false)

// True when the armed plan targets `site` here; for forced-state sites.
#define MFG_FAULT_FORCED(site) \
  ::mfg::core::faults::Fires(::mfg::core::faults::FaultSite::site)

#define MFG_FAULT_CONCAT_INNER_(a, b) a##b
#define MFG_FAULT_CONCAT_(a, b) MFG_FAULT_CONCAT_INNER_(a, b)

// Declares the thread-local (epoch, content, attempt) coordinates for the
// rest of the enclosing scope.
#define MFG_FAULT_SCOPE(epoch, content, attempt)                     \
  ::mfg::core::faults::ScopedFaultScope MFG_FAULT_CONCAT_(           \
      mfg_fault_scope_, __LINE__)(epoch, content, attempt)

#else  // !MFGCP_FAULTS_ENABLED

#define MFG_FAULT_POINT(site) (void)0
#define MFG_FAULT_FORCED(site) false
// Unevaluated, as the stripped MFG_OBS_* macros: a coordinate that only
// feeds the scope still counts as used.
#define MFG_FAULT_SCOPE(epoch, content, attempt) \
  (void)sizeof(epoch), (void)sizeof(content), (void)sizeof(attempt)

#endif  // MFGCP_FAULTS_ENABLED

#endif  // MFGCP_CORE_FAULT_INJECTION_H_
