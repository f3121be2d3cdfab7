#include "core/mfg_cp.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/equilibrium_metrics.h"
#include "core/fault_injection.h"
#include "core/plan_publication.h"
#include "numerics/density.h"
#include "obs/exporter.h"
#include "obs/flight_dump.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mfg::core {

namespace {

// The relaxation schedule of retry a (a ∈ [1, kLadderMaxRetries]): the
// best-response update damped by kRetryRelaxationDecay^a, the acceptance
// tolerance widened by kRetryToleranceGrowth^a (an equilibrium that narrowly
// misses the strict tolerance still ships), and kRetryExtraIterations · a
// more fixed-point iterations.
constexpr double kRetryRelaxationDecay = 0.5;
constexpr double kRetryToleranceGrowth = 10.0;
constexpr std::size_t kRetryExtraIterations = 40;
// Static fallback (no usable history): contents in the top fraction of the
// epoch's popularity ranking cache at rate 1, the rest at rate 0 — the
// baselines::most_popular decision rule, tabulated as a constant policy.
constexpr double kFallbackTopFraction = 0.3;

// Context handed to the worker pool for one epoch; slots index
// buffer->results / buffer->statuses, whose `content` fields the planning
// pass filled before RunEpochBlocks.
struct EpochSolveJob {
  const MfgCpFramework* framework;
  const EpochObservation* obs;
  EpochPlanBuffer* buffer;
  EpochRuntime* runtime;
};

// Codes the ladder may recover from. Configuration errors propagate:
// retrying an invalid input reproduces the same failure, and masking it
// with a fallback would hide a caller bug.
bool IsRecoverable(common::StatusCode code) {
  return code == common::StatusCode::kNumericalError ||
         code == common::StatusCode::kInternal;
}

// Applies the schedule of attempt `attempt` (0 leaves `learning` as is).
// The repeated multiply, not std::pow, is part of the retried params' bits.
void RelaxLearning(std::size_t attempt, LearningParams& learning) {
  for (std::size_t a = 0; a < attempt; ++a) {
    learning.relaxation *= kRetryRelaxationDecay;
    learning.tolerance *= kRetryToleranceGrowth;
  }
  learning.max_iterations += kRetryExtraIterations * attempt;
}

// Trades one storage for another in O(1): nothing is copied or allocated.
void SwapStorage(MfgParams& params_a, Equilibrium& equilibrium_a,
                 MfgParams& params_b, Equilibrium& equilibrium_b) {
  std::swap(params_a, params_b);
  std::swap(equilibrium_a, equilibrium_b);
}

// Puts lane `lane`'s attempt result in `result`. A slot that holds storage
// trades it for the lane's scratch (the lane's next attempt reuses the
// slot's old buffers). A slot without storage — its content's first result
// — takes a copy instead: that allocates the content's one storage and
// keeps the lane's scratch warm, so a warmed lane never allocates.
void InstallLane(EpochRuntime::WorkerContext& wc, std::size_t lane,
                 EpochContentResult& result) {
  Equilibrium& solved = wc.lane_equilibria[lane];
  if (result.equilibrium.hjb.policy.flat().empty()) {
    result.params = wc.lane_params[lane];
    result.equilibrium = solved;
    // A copy sizes the histories to their length; keep the learner's
    // reservation, or this storage reallocates when it next serves as a
    // lane's scratch.
    result.equilibrium.policy_change_history.reserve(
        solved.policy_change_history.capacity());
    result.equilibrium.value_change_history.reserve(
        solved.value_change_history.capacity());
    return;
  }
  SwapStorage(result.params, result.equilibrium, wc.lane_params[lane],
              solved);
}

// True when slot `slot` shipped an unconverged iterate last epoch: the one
// rung after which the slot does not hold its content's home storage (that
// stayed in last_good; see EpochPlanBuffer).
bool ShippedUnconvergedIterate(const EpochPlanBuffer& buffer,
                               std::size_t slot) {
  return buffer.outcomes[slot] == SlotOutcome::kRetried &&
         !buffer.results[slot].equilibrium.converged;
}

// Final ladder rung: a static most-popular-style plan built without the
// solver — contents in the top kFallbackTopFraction of the epoch's
// popularity ranking cache at rate 1, the rest at rate 0, and the mean
// field is frozen at the initial density (no market information survives
// a solve that never ran). Built outside any fault scope: the fallback
// must not be killable by the same injected fault that triggered it.
common::Status BuildFallbackResult(const EpochSolveJob& job,
                                   EpochContentResult& result) {
  const MfgCpFramework& framework = *job.framework;
  const content::ContentId k = result.content;

  // The per-content params may be what failed (bad observation), so build
  // from the template params and the catalog only.
  MfgParams params = framework.options().base_params;
  params.content_id = k;
  params.content_size = framework.catalog().size_mb(k);
  params.popularity = std::clamp(job.buffer->popularity[k], 0.0, 1.0);
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D grid, params.MakeQGrid());

  // Popularity rank of k in [0, 1): the fraction of catalog contents
  // strictly ahead of it (ties broken by id, like the simulator's rank).
  const std::vector<double>& popularity = job.buffer->popularity;
  std::size_t ahead = 0;
  for (std::size_t j = 0; j < popularity.size(); ++j) {
    if (popularity[j] > popularity[k] ||
        (popularity[j] == popularity[k] && j < k)) {
      ++ahead;
    }
  }
  const double rank = popularity.empty()
                          ? 0.0
                          : static_cast<double>(ahead) /
                                static_cast<double>(popularity.size());
  const double rate = rank < kFallbackTopFraction ? 1.0 : 0.0;

  const std::size_t nt = params.grid.num_time_steps;
  const std::size_t nq = params.grid.num_q_nodes;
  Equilibrium& eq = result.equilibrium;
  eq.iterations = 0;
  eq.converged = false;
  eq.policy_change_history.clear();
  eq.value_change_history.clear();
  eq.hjb.q_grid = grid;
  eq.hjb.dt = params.TimeStep();
  eq.hjb.value.Assign(nt + 1, nq, 0.0);
  eq.hjb.policy.Assign(nt + 1, nq, rate);
  eq.fpk.q_grid = grid;
  eq.fpk.dt = params.TimeStep();
  eq.fpk.densities.resize(nt + 1);
  for (numerics::Density1D& density : eq.fpk.densities) {
    MFG_RETURN_IF_ERROR(numerics::Density1D::TruncatedGaussianInto(
        grid, params.init_mean_frac * params.content_size,
        params.init_std_frac * params.content_size, density));
  }
  eq.mean_field.assign(nt + 1, MeanFieldQuantities{});
  eq.mean_caching_rate = MeanCachingRate(eq.hjb.policy);
  result.params = std::move(params);
  return common::Status::Ok();
}

#if MFGCP_OBS_ENABLED
// The registry counter a ladder outcome bumps, indexed by SlotOutcome
// (none for kSolved, nor for kFailed: core.epoch.failures counts those per
// epoch).
obs::Counter* LadderCounter(SlotOutcome outcome) {
  static obs::Counter* const counters[] = {
      nullptr,
      &obs::Registry::Global().GetCounter("core.epoch.retries"),
      &obs::Registry::Global().GetCounter("core.epoch.carry_forwards"),
      &obs::Registry::Global().GetCounter("core.epoch.fallbacks"),
      nullptr,
  };
  return counters[static_cast<std::size_t>(outcome)];
}
#endif  // MFGCP_OBS_ENABLED

// Attempt `attempt` of every pending slot: slot pending[i] is lane i of one
// block solve on worker `wc`'s batch learner. Each slot's params are built
// (and, for a retry, relaxed) into the lane's scratch and bound under the
// slot's own fault coordinates, and its lane polls the solver's fault
// sites at the same (epoch, content, attempt). The lane solves into its
// scratch equilibrium: the slot's storage is left for SettleSlot. A slot
// whose params fail to build or bind sits the solve out with that status
// in its lane job. Lanes share no arithmetic, so a slot's result does not
// depend on which other slots share its round.
void SolveAttempt(const EpochSolveJob& job, EpochRuntime::WorkerContext& wc,
                  std::span<const std::size_t> pending, std::size_t attempt) {
  const std::size_t epoch = job.buffer->epoch_index;
  // Ambient coordinates for the lockstep solve below; the batched solvers
  // record each lane's events under its own content id.
  MFG_FLIGHT_SCOPE(epoch, attempt);
  BatchBestResponseLearner& learner = wc.batch_learner;
  learner.Reset(pending.size());
  wc.batch_jobs.resize(pending.size());
  if (wc.lane_equilibria.size() < pending.size()) {
    wc.lane_equilibria.resize(pending.size());
    wc.lane_params.resize(pending.size());
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EpochContentResult& result = job.buffer->results[pending[i]];
    const content::ContentId k = result.content;
    BatchBestResponseLearner::LaneJob& lane = wc.batch_jobs[i];
    lane.epoch = epoch;
    lane.content = k;
    lane.attempt = attempt;
    lane.out = &wc.lane_equilibria[i];
    lane.active = false;
    result.attempts = attempt + 1;
    MFG_FAULT_SCOPE(epoch, k, attempt);
    auto built = job.framework->ContentParams(
        k, job.buffer->popularity[k], job.obs->mean_timeliness[k],
        static_cast<double>(job.obs->request_counts[k]));
    if (!built.ok()) {
      lane.status = built.status();
      continue;
    }
    MfgParams& params = wc.lane_params[i];
    params = std::move(*built);
    RelaxLearning(attempt, params.learning);
    MFG_FLIGHT_EVENT(kAttemptBegin, 0, k,
                     static_cast<std::uint32_t>(params.learning.max_iterations),
                     params.learning.relaxation, params.learning.tolerance);
    lane.status = learner.BindLane(i, params);
    lane.active = lane.status.ok();
  }
  learner.SolveInto(
      std::span<BatchBestResponseLearner::LaneJob>(wc.batch_jobs),
      wc.batch_workspace);
}

// Settles slot `slot`, lane `lane` of worker `wc`'s last round, after
// attempt `attempt` ended with `lane_status`. Returns true while the ladder
// wants another relaxed attempt (the slot stays pending). Otherwise records
// the slot's outcome: a clean converged solve, a retry's (possibly
// unconverged) iterate, the content's last-good equilibrium, the static
// fallback, or a failure. Every outcome but a first-attempt solve leaves
// one kLadder flight event, counter and WARN. Each rung reads only the
// slot's own inputs and storage, so the outcome is the same at every batch
// width and parallelism.
//
// The slot holds its content's storage (the last good when
// last_good[k].valid). A converged lane is swapped in and becomes the new
// last good; a carried-forward slot keeps what it holds; the fallback is
// built in place. Only an unconverged iterate needs a second object: the
// last good goes home to last_good[k] and the iterate is copied in.
bool SettleSlot(const EpochSolveJob& job, EpochRuntime::WorkerContext& wc,
                std::size_t lane, std::size_t slot, common::Status lane_status,
                std::size_t attempt) {
  EpochPlanBuffer& buffer = *job.buffer;
  EpochContentResult& result = buffer.results[slot];
  common::Status& status = buffer.statuses[slot];
  const content::ContentId k = result.content;
  EpochPlanBuffer::LastGood& home = buffer.last_good[k];
  status = std::move(lane_status);
  const bool converged = status.ok() && wc.lane_equilibria[lane].converged;
  const bool recoverable = status.ok() || IsRecoverable(status.code());
  if (!converged && recoverable && attempt < kLadderMaxRetries) return true;

  MFG_OBS_SPAN_ID("PlanEpoch.SolveContent", static_cast<std::int64_t>(k));
  SlotOutcome outcome = SlotOutcome::kFailed;
  const char* action = "failed";
  std::string detail;  // The shipped iterate's miss, if unconverged.
  if (converged) {
    InstallLane(wc, lane, result);
    home.valid = true;
    outcome = attempt == 0 ? SlotOutcome::kSolved : SlotOutcome::kRetried;
    action = "recovered on a relaxed retry";
  } else if (status.ok()) {
    // Every retry stayed clean but unconverged: ship the last iterate
    // rather than discard a usable (if slow) fixed point.
    SwapStorage(home.params, home.equilibrium, result.params,
                result.equilibrium);
    InstallLane(wc, lane, result);
    outcome = SlotOutcome::kRetried;
    action = "still unconverged after relaxed retries; using the last iterate";
    const Equilibrium& iterate = result.equilibrium;
    std::ostringstream miss;
    miss << "; its final residual " << iterate.policy_change_history.back()
         << " > tolerance " << result.params.learning.tolerance << " after "
         << iterate.iterations << " iterations";
    detail = miss.str();
  } else if (recoverable && home.valid) {
    outcome = SlotOutcome::kCarriedForward;
    action = "carrying forward the last-good equilibrium";
  } else if (recoverable && BuildFallbackResult(job, result).ok()) {
    outcome = SlotOutcome::kFallback;
    action = "no usable history; installing the static fallback policy";
  }
  buffer.outcomes[slot] = outcome;
  if (outcome == SlotOutcome::kSolved) return false;

  MFG_LOG(WARNING) << "content " << k << " (epoch " << buffer.epoch_index
                   << "): " << action << " after " << result.attempts
                   << " attempt(s); last solve: " << status << detail;
  // A failed slot keeps its error (the original solve error, even when the
  // fallback failed too); every other rung serves the slot.
  if (outcome != SlotOutcome::kFailed) status = common::Status::Ok();
  MFG_FLIGHT_EVENT_AT(kLadder, static_cast<std::uint8_t>(outcome),
                      buffer.epoch_index, k,
                      static_cast<std::uint16_t>(result.attempts), 0,
                      static_cast<double>(result.attempts),
                      static_cast<double>(static_cast<int>(status.code())));
#if MFGCP_OBS_ENABLED
  if (obs::Counter* counter = LadderCounter(outcome)) counter->Add(1);
#endif
  return false;
}

// Solves slots [begin, end) on worker `worker`'s long-lived batch learner:
// one attempt loop in which every round solves the block's pending slots
// as the lanes of one batch, and slots leave the loop as they settle.
// Writes only the block's slots, the worker's own lane scratch and each
// slot content's own last_good entry (which no other slot touches this
// epoch), so any block→worker schedule yields bit-identical results.
void SolveEpochBlock(void* ctx, std::size_t worker, std::size_t begin,
                     std::size_t end) {
  const EpochSolveJob& job = *static_cast<EpochSolveJob*>(ctx);
  EpochRuntime::WorkerContext& wc = job.runtime->worker(worker);
  // Scheduling-scope breadcrumb (excluded from per-content drains: block
  // shapes depend on the worker count).
  MFG_FLIGHT_EVENT_AT(kBlockClaim, 0, job.buffer->epoch_index,
                      job.buffer->results[begin].content, 0,
                      static_cast<std::uint32_t>(end - begin),
                      static_cast<double>(worker), 0.0);
  std::vector<std::size_t>& pending = wc.pending_slots;
  pending.resize(end - begin);
  std::iota(pending.begin(), pending.end(), begin);
  for (std::size_t attempt = 0; !pending.empty(); ++attempt) {
    SolveAttempt(job, wc, pending, attempt);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (SettleSlot(job, wc, i, pending[i],
                     std::move(wc.batch_jobs[i].status), attempt)) {
        pending[kept++] = pending[i];
      }
    }
    pending.resize(kept);
  }
}

#if MFGCP_OBS_ENABLED
// Handles to the learner counters whose per-epoch deltas feed the health
// report, cached once like the MFG_OBS_* macro sites. Reading Value() is
// a relaxed load — the recorders stay wait-free while an epoch brackets
// them.
struct BestResponseCounters {
  obs::Counter& solves;
  obs::Counter& converged;
  obs::Counter& nonconverged;

  static const BestResponseCounters& Get() {
    static const BestResponseCounters handles{
        obs::Registry::Global().GetCounter("core.best_response.solves"),
        obs::Registry::Global().GetCounter("core.best_response.converged"),
        obs::Registry::Global().GetCounter(
            "core.best_response.nonconverged")};
    return handles;
  }
};
#endif  // MFGCP_OBS_ENABLED

}  // namespace

common::StatusOr<MfgCpFramework> MfgCpFramework::Create(
    const MfgCpOptions& options, const content::Catalog& catalog,
    const content::PopularityModel& popularity,
    const content::TimelinessModel& timeliness) {
  MFG_RETURN_IF_ERROR(options.base_params.Validate());
  if (popularity.num_contents() != catalog.size()) {
    return common::Status::InvalidArgument(
        "popularity model does not cover the catalog");
  }
  if (options.batch_width == 0) {
    return common::Status::InvalidArgument("batch_width must be >= 1");
  }
  auto state = std::make_unique<PlanState>(options.parallelism);
  return MfgCpFramework(options, catalog, popularity, timeliness,
                        std::move(state));
}

common::StatusOr<MfgParams> MfgCpFramework::ContentParams(
    content::ContentId k, double popularity, double timeliness,
    double num_requests) const {
  if (k >= catalog_.size()) {
    return common::Status::OutOfRange("content id out of range");
  }
  MFG_FAULT_POINT(kParamsBuild);
  MfgParams params = options_.base_params;
  params.content_id = k;
  params.content_size = catalog_.size_mb(k);
  params.popularity = std::clamp(popularity, 0.0, 1.0);
  params.timeliness = timeliness;
  params.num_requests = num_requests;
  MFG_RETURN_IF_ERROR(params.Validate());
  return params;
}

common::Status MfgCpFramework::PlanEpochInto(const EpochObservation& obs,
                                             EpochPlanBuffer& buffer,
                                             EpochHealthReport* health) const {
  MFG_OBS_SPAN("PlanEpoch");
  MFG_OBS_SCOPED_TIMER("core.plan_epoch.seconds");
  MFG_OBS_COUNT("core.plan_epoch.epochs", 1);
  const std::chrono::steady_clock::time_point plan_start =
      std::chrono::steady_clock::now();
  const std::size_t k_total = catalog_.size();
  if (obs.request_counts.size() != k_total ||
      obs.mean_timeliness.size() != k_total ||
      obs.mean_remaining.size() != k_total) {
    return common::Status::InvalidArgument(
        "epoch observation arity does not match the catalog");
  }

  // One epoch at a time on the shared pool (PlanEpoch is const but the
  // worker contexts are mutable state).
  std::lock_guard<std::mutex> lock(state_->mutex);

  buffer.active.assign(k_total, false);
  if (buffer.last_good.size() < k_total) buffer.last_good.resize(k_total);

  // Popularity update (Eq. 3) from the epoch's request counts.
  MFG_RETURN_IF_ERROR(
      popularity_.UpdateInto(obs.request_counts, buffer.popularity));

  // Storage moves, part 1: every slot of the last epoch swaps its storage
  // back into its content's (hollow) last_good home — except a shipped
  // unconverged iterate, whose content's last good is already home: that
  // second object is dropped. Every swap trades with a hollow object, so
  // nothing is copied or allocated.
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    EpochContentResult& result = buffer.results[slot];
    if (ShippedUnconvergedIterate(buffer, slot)) {
      result.equilibrium = Equilibrium{};
      continue;
    }
    EpochPlanBuffer::LastGood& home = buffer.last_good[result.content];
    SwapStorage(home.params, home.equilibrium, result.params,
                result.equilibrium);
  }

  // K' (Alg. 1 line 5): contents that still have uncached data and were
  // actually requested this epoch. Slots keep ascending content order, so
  // downstream consumers see the same ordering as the serial loop. Storage
  // moves, part 2: each active content's home swaps into its slot, so the
  // slot starts the epoch holding the content's last good.
  buffer.num_active = 0;
  for (content::ContentId k = 0; k < k_total; ++k) {
    const bool needs_cache = obs.mean_remaining[k] > 0.0;
    const bool requested =
        static_cast<double>(obs.request_counts[k]) >= options_.min_requests;
    if (!needs_cache || !requested) continue;
    buffer.active[k] = true;
    const std::size_t slot = buffer.num_active++;
    if (buffer.results.size() <= slot) {
      buffer.results.emplace_back();
      buffer.statuses.emplace_back();
    }
    if (buffer.outcomes.size() <= slot) buffer.outcomes.emplace_back();
    EpochContentResult& result = buffer.results[slot];
    EpochPlanBuffer::LastGood& home = buffer.last_good[k];
    result.content = k;
    SwapStorage(home.params, home.equilibrium, result.params,
                result.equilibrium);
    buffer.statuses[slot] = common::Status::Ok();
    buffer.outcomes[slot] = SlotOutcome::kSolved;
  }
  MFG_OBS_OBSERVE_COUNTS("core.plan_epoch.active_contents",
                         static_cast<double>(buffer.num_active));

  // Health assembly is opt-in: a caller-passed report, or a local one
  // when only the health log line is wanted. `report == nullptr` skips
  // every assembly step, preserving the zero-allocation epoch path for
  // callers that did not ask for a report.
  EpochHealthReport local_report;
  EpochHealthReport* report = health;
  if (report == nullptr && EpochHealthLoggingEnabled()) {
    report = &local_report;
  }
#if MFGCP_OBS_ENABLED
  std::uint64_t br_solves_before = 0;
  std::uint64_t br_converged_before = 0;
  std::uint64_t br_nonconverged_before = 0;
  if (report != nullptr) {
    const BestResponseCounters& br = BestResponseCounters::Get();
    br_solves_before = br.solves.Value();
    br_converged_before = br.converged.Value();
    br_nonconverged_before = br.nonconverged.Value();
  }
#endif
  const std::size_t epoch = buffer.epoch_index;

  // Solve the independent per-content equilibria on the persistent pool
  // (Alg. 1 line 2) as SoA blocks of up to batch_width slots (see
  // SolveEpochBlock above). Each worker writes only its own slots.
  EpochSolveJob job{this, &obs, &buffer, &state_->runtime};
  // Shrink blocks on small epochs so there are at least as many blocks as
  // workers whenever num_active >= workers — the whole pool warms and
  // shares the work. Results are unaffected: lanes are independent, so a
  // slot's result is the same at any block width.
  const std::size_t workers = state_->runtime.num_workers();
  const std::size_t per_worker =
      std::max<std::size_t>(1, buffer.num_active / workers);
  state_->runtime.RunEpochBlocks(buffer.num_active,
                                 std::min(options_.batch_width, per_worker),
                                 &SolveEpochBlock, &job);
  ++buffer.epoch_index;

  // Degradation tally + aggregated failure report. The per-slot statuses
  // stay intact either way; only the epoch-level summary is built here.
  std::size_t solved = 0;
  std::size_t retried = 0;
  std::size_t carried_forward = 0;
  std::size_t fallback = 0;
  std::size_t failed = 0;
  std::size_t num_failed = 0;
  common::StatusCode first_code = common::StatusCode::kOk;
  std::string failure_detail;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    switch (buffer.outcomes[slot]) {
      case SlotOutcome::kSolved:
        ++solved;
        break;
      case SlotOutcome::kRetried:
        ++retried;
        break;
      case SlotOutcome::kCarriedForward:
        ++carried_forward;
        break;
      case SlotOutcome::kFallback:
        ++fallback;
        break;
      case SlotOutcome::kFailed:
        ++failed;
        break;
    }
    const common::Status& status = buffer.statuses[slot];
    if (status.ok()) continue;
    // Error path (may allocate): name every failed content so an epoch
    // over hundreds of contents tells the operator *which* solves died,
    // not just the first.
    if (num_failed > 0) failure_detail += "; ";
    failure_detail += "content " +
                      std::to_string(buffer.results[slot].content) + ": " +
                      status.message();
    if (num_failed == 0) first_code = status.code();
    ++num_failed;
  }
  MFG_OBS_GAUGE_SET(
      "core.epoch.degraded_contents",
      static_cast<double>(carried_forward + fallback + failed));

  // Equilibrium-quality probe (options_.eq_probe): re-evaluates the
  // best response against each probed slot's final mean field (ε-Nash
  // exploitability, Definition 3) and re-solves the FPK under its final
  // policy (mean-field consistency residual, Eq. 15). Runs on the calling
  // thread after the pool is idle — allocating is fine here, and no
  // FlightScope is open, so the probe's own solver passes record nothing.
  std::size_t eq_probed = 0;
  double eq_gap = 0.0;
  double eq_rel = 0.0;
  double eq_cons = 0.0;
  double eq_price_min = 0.0;
  double eq_price_mean = 0.0;
  double eq_price_max = 0.0;
  if (options_.eq_probe.enabled && buffer.num_active > 0) {
    const std::size_t limit =
        options_.eq_probe.max_contents == 0
            ? buffer.num_active
            : std::min(options_.eq_probe.max_contents, buffer.num_active);
    // Rotate the probed window across epochs so every content is
    // eventually covered at any max_contents.
    const std::size_t start = (epoch * limit) % buffer.num_active;
    for (std::size_t i = 0; i < limit; ++i) {
      const std::size_t slot = (start + i) % buffer.num_active;
      if (buffer.outcomes[slot] == SlotOutcome::kFailed) continue;
      const EpochContentResult& result = buffer.results[slot];
      auto exploitability =
          ComputeExploitability(result.params, result.equilibrium);
      auto consistency =
          ComputeConsistencyResidual(result.params, result.equilibrium);
      if (!exploitability.ok() || !consistency.ok()) continue;
      ++eq_probed;
      eq_gap = std::max(eq_gap, exploitability->gap);
      eq_rel = std::max(eq_rel, exploitability->RelativeGap());
      eq_cons = std::max(eq_cons, *consistency);
    }
    // Price-trajectory stats over every active slot's mean field (cheap:
    // no solves), so the gauge covers the whole epoch even when the
    // probe window is small. A failed slot's equilibrium was never
    // written this epoch, and a fallback's mean field is placeholders.
    std::size_t price_samples = 0;
    double price_sum = 0.0;
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      if (buffer.outcomes[slot] == SlotOutcome::kFailed ||
          buffer.outcomes[slot] == SlotOutcome::kFallback) {
        continue;
      }
      const Equilibrium& eq = buffer.results[slot].equilibrium;
      for (const MeanFieldQuantities& mf : eq.mean_field) {
        if (price_samples == 0) {
          eq_price_min = mf.price;
          eq_price_max = mf.price;
        } else {
          eq_price_min = std::min(eq_price_min, mf.price);
          eq_price_max = std::max(eq_price_max, mf.price);
        }
        price_sum += mf.price;
        ++price_samples;
      }
    }
    if (price_samples > 0) {
      eq_price_mean = price_sum / static_cast<double>(price_samples);
    }
    MFG_OBS_GAUGE_SET("eq.probed_contents", static_cast<double>(eq_probed));
    MFG_OBS_GAUGE_SET("eq.exploitability", eq_gap);
    MFG_OBS_GAUGE_SET("eq.exploitability_rel", eq_rel);
    MFG_OBS_GAUGE_SET("eq.consistency_residual", eq_cons);
    MFG_OBS_GAUGE_SET("eq.price_min", eq_price_min);
    MFG_OBS_GAUGE_SET("eq.price_mean", eq_price_mean);
    MFG_OBS_GAUGE_SET("eq.price_max", eq_price_max);
  }

#if MFGCP_OBS_ENABLED
  // Flight-recorder post-mortem: drain the affected contents' retained
  // events into a JSONL dump. Degraded slots trigger it; dump_healthy
  // (`flight_dump_all=on`) dumps every active content on demand. Only
  // entered when a dump directory is configured, so the zero-allocation
  // epoch contract is unchanged for everyone else.
  std::string flight_dump_path;
  if (obs::FlightDumpConfigured() && buffer.num_active > 0) {
    const bool dump_all = obs::GetFlightDumpOptions().dump_healthy;
    std::vector<std::size_t> dump_contents;
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      const SlotOutcome outcome = buffer.outcomes[slot];
      const bool degraded = outcome == SlotOutcome::kCarriedForward ||
                            outcome == SlotOutcome::kFallback ||
                            outcome == SlotOutcome::kFailed;
      if (degraded || dump_all) {
        dump_contents.push_back(buffer.results[slot].content);
      }
    }
    if (!dump_contents.empty()) {
      flight_dump_path = obs::WriteFlightDump(epoch, dump_contents);
      if (!flight_dump_path.empty()) {
        MFG_LOG(WARNING) << "epoch " << epoch
                         << ": flight post-mortem written to "
                         << flight_dump_path;
      }
    }
  }
#endif  // MFGCP_OBS_ENABLED

  if (report != nullptr) {
    // Zero the whole record first: the serving group is a publication
    // property only the serving runtime can fill, after this call returns,
    // so a reused report must never carry a stale deadline miss or tick
    // percentile into a fresh epoch.
    static_cast<obs::EpochRecord&>(*report) = obs::EpochRecord{};
    report->epoch = epoch;
    report->active = buffer.num_active;
    report->plan_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      plan_start)
            .count();
    report->solved = solved;
    report->retried = retried;
    report->carried_forward = carried_forward;
    report->fallback = fallback;
    report->failed = failed;
    report->allocations = state_->runtime.last_epoch_allocations();
    report->eq_probed = eq_probed;
    report->eq_exploitability = eq_gap;
    report->eq_exploitability_rel = eq_rel;
    report->eq_consistency_residual = eq_cons;
    report->eq_price_min = eq_price_min;
    report->eq_price_mean = eq_price_mean;
    report->eq_price_max = eq_price_max;
#if MFGCP_OBS_ENABLED
    report->flight_dump_path = flight_dump_path;
#else
    report->flight_dump_path.clear();
#endif
    // Slots keep ascending content order, so this listing is ascending
    // too. Reuses the report's vector capacity across epochs.
    report->degraded_contents.clear();
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      const SlotOutcome outcome = buffer.outcomes[slot];
      if (outcome == SlotOutcome::kCarriedForward ||
          outcome == SlotOutcome::kFallback ||
          outcome == SlotOutcome::kFailed) {
        report->degraded_contents.push_back(buffer.results[slot].content);
      }
    }
#if MFGCP_OBS_ENABLED
    const BestResponseCounters& br = BestResponseCounters::Get();
    report->best_response_solves = br.solves.Value() - br_solves_before;
    report->best_response_converged =
        br.converged.Value() - br_converged_before;
    report->best_response_nonconverged =
        br.nonconverged.Value() - br_nonconverged_before;
#endif
    if (EpochHealthLoggingEnabled()) {
      MFG_LOG(INFO) << FormatHealthLine(*report);
    }
  }

  if (num_failed > 0) {
    MFG_OBS_COUNT("core.epoch.failures", num_failed);
    if (num_failed > 1) {
      failure_detail = std::to_string(num_failed) +
                       " contents failed: " + failure_detail;
    }
    return common::Status(first_code, std::move(failure_detail));
  }
#if MFGCP_OBS_ENABLED
  // Latch the admin plane's /readyz: the process has published at least
  // one plan (obs/exporter.h).
  obs::AdminSetReady(true);
#endif
  return common::Status::Ok();
}

common::StatusOr<EpochPlan> MfgCpFramework::PlanEpoch(
    const EpochObservation& obs) const {
  EpochPlanBuffer buffer;
  MFG_RETURN_IF_ERROR(PlanEpochInto(obs, buffer));

  EpochPlan plan;
  plan.active = std::move(buffer.active);
  plan.popularity = std::move(buffer.popularity);
  plan.policies.assign(catalog_.size(), nullptr);
  plan.equilibria.reserve(buffer.num_active);
  plan.equilibrium_content.reserve(buffer.num_active);
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    EpochContentResult& result = buffer.results[slot];
    // The params were already built (and validated) by the worker; reuse
    // them instead of reconstructing per content.
    MFG_ASSIGN_OR_RETURN(
        std::unique_ptr<MfgPolicy> policy,
        MfgPolicy::Create(result.params, result.equilibrium));
    plan.policies[result.content] = std::shared_ptr<MfgPolicy>(std::move(policy));
    plan.equilibria.push_back(std::move(result.equilibrium));
    plan.equilibrium_content.push_back(result.content);
  }
  return plan;
}

}  // namespace mfg::core
