#include "serve/serve_loop.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "content/popularity.h"
#include "core/fault_injection.h"
#include "obs/alloc_probe.h"
#include "obs/obs.h"
#if MFGCP_OBS_ENABLED
#include "obs/exporter.h"
#include "obs/quantile.h"
#endif

namespace mfg::serve {

namespace {

// The kPlanDeadline forced-state site: a hit makes the finished plan
// count as having overrun its deadline (synchronous mode has no real
// wall-clock budget to miss, so chaos tests force the path here).
bool DeadlineFaultFires(std::size_t epoch) {
  MFG_FAULT_SCOPE(epoch, 0, 0);
  return MFG_FAULT_FORCED(kPlanDeadline);
}

std::chrono::steady_clock::duration MillisDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

// Per-Run serve-side state; the request ledger itself is ledger_.
struct ServeLoop::RunState {
  ServeStats& stats;
  double sim_now = 0.0;
  double last_pub_sim = 0.0;
  // The boundary that closed the epoch the serving plan was computed
  // from, as sim time and boundary count (t = 0 and 0 for the prior
  // placement that serves until the first publication).
  double plan_closed_at = 0.0;
  std::size_t plan_closed_epochs = 0;
  // Steady-allocation window (armed at the second publication).
  bool window_armed = false;
  std::size_t window_allocs = 0;
  std::uint64_t window_ticks = 0;
};

ServeLoop::ServeLoop(const ServeOptions& options)
    : options_(options), clock_(options.clock) {}

ServeLoop::~ServeLoop() {
  // Stop() joins the planner *before* any member (plan buffers, the
  // replan hook, the job channel) is torn down, and the planner drains a
  // posted round before honoring shutdown — so an in-flight async plan
  // can never touch freed buffers.
  Stop();
#if MFGCP_OBS_ENABLED
  if (started_admin_) obs::AdminExporter::Global().Stop();
#endif
}

void ServeLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (planner_.joinable()) planner_.join();
}

common::StatusOr<std::unique_ptr<ServeLoop>> ServeLoop::Create(
    const ServeOptions& options) {
  if (auto status = sim::ValidateRequestEngineOptions(options.engine);
      !status.ok()) {
    return status;
  }
  if (options.engine.epoch_period <= 0.0) {
    return common::Status::InvalidArgument(
        "serving runtime needs engine.epoch_period > 0");
  }
  if (auto status = ValidateServeClockOptions(options.clock); !status.ok()) {
    return status;
  }
  if (options.plan_deadline_ms < 0.0) {
    return common::Status::InvalidArgument("plan_deadline_ms must be >= 0");
  }
  if (options.synthetic_plan_delay_ms < 0.0) {
    return common::Status::InvalidArgument(
        "synthetic_plan_delay_ms must be >= 0");
  }

  auto loop = std::unique_ptr<ServeLoop>(new ServeLoop(options));

  const std::size_t k = options.engine.num_contents;
  auto popularity = content::PopularityModel::CreateZipf(k, options.zipf_iota);
  if (!popularity.ok()) return popularity.status();
  loop->prior_ = popularity.value().prior();

  auto hook = sim::MfgPlanReplanHook::Create(
      options.plan, k, options.engine.content_size_mb, options.zipf_iota);
  if (!hook.ok()) return hook.status();
  loop->hook_ = std::move(hook).value();

  const std::size_t capacity = options.engine.cache_capacity;
  if (auto status = loop->cache_a_.Reset(k, capacity, loop->prior_);
      !status.ok()) {
    return status;
  }
  if (auto status = loop->cache_b_.Reset(k, capacity, loop->prior_);
      !status.ok()) {
    return status;
  }

  // Pre-size every cross-thread buffer so the steady path only ever
  // assigns into warmed storage.
  loop->ledger_.Reset(options.engine, options.engine.epoch_period);
  loop->job_counts_.assign(k, 0);
  loop->interpolator_.Reset(k);

#if MFGCP_OBS_ENABLED
  if (options.admin_port >= 0 && !obs::AdminExporter::Global().active()) {
    obs::ExporterOptions admin;
    admin.port = options.admin_port;
    admin.epochz_capacity =
        options.epochz_capacity == 0 ? 64 : options.epochz_capacity;
    if (auto status = obs::AdminExporter::Global().Start(admin);
        !status.ok()) {
      return status;
    }
    loop->started_admin_ = true;
  }
#endif

  loop->planner_ = std::thread(&ServeLoop::PlannerMain, loop.get());
  return loop;
}

void ServeLoop::PlannerMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return shutdown_ || job_posted_; });
    // Drain a posted round even when shutdown was requested after the
    // post: a WaitForJob on the serve thread is (or will be) blocked on
    // this round, and Stop() relies on never stranding it.
    if (!job_posted_) return;  // shutdown_ with nothing pending.
    job_posted_ = false;
    const std::size_t epoch = job_epoch_;
    baselines::StaticSetCache* cache = job_cache_;
    lock.unlock();

    if (options_.synthetic_plan_delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(
              options_.synthetic_plan_delay_ms));
    }
    // The gauntlet's replan hook, verbatim: observation update,
    // PlanEpochInto on the persistent pool, snapshot, re-place `cache`
    // (the back buffer — the serve thread never probes it mid-job).
    common::Status status = hook_->OnEpochBoundary(epoch, job_counts_, *cache);
    if (status.ok() && options_.on_plan) {
      options_.on_plan(hook_->plan_buffer(), hook_->last_health());
    }

    lock.lock();
    job_status_ = std::move(status);
    job_done_ = true;
    cv_.notify_all();
  }
}

bool ServeLoop::PostPlanJob() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return false;  // Stop() raced this boundary.
    job_epoch_ = ledger_.epoch();
    std::ranges::copy(ledger_.epoch_counts(), job_counts_.begin());
    job_cache_ = back_;
    job_posted_ = true;
    job_done_ = false;
  }
  cv_.notify_all();
  job_running_ = true;
  job_miss_counted_ = false;
  job_post_time_ = std::chrono::steady_clock::now();
  if (options_.plan_deadline_ms > 0.0) {
    job_deadline_ = job_post_time_ + MillisDuration(options_.plan_deadline_ms);
  }
  return true;
}

bool ServeLoop::JobDone() {
  std::lock_guard<std::mutex> lock(mutex_);
  return job_done_;
}

void ServeLoop::WaitForJob() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return job_done_; });
}

void ServeLoop::CountDeadlineMiss(RunState& state) {
  job_miss_counted_ = true;
  ++state.stats.deadline_misses;
  MFG_OBS_COUNT("serve.plan_deadline_misses", 1);
}

void ServeLoop::PollAsyncJob(RunState& state) {
  if (!job_running_ || options_.plan_deadline_ms <= 0.0) return;
  const bool done = JobDone();
  if (!job_miss_counted_ &&
      std::chrono::steady_clock::now() > job_deadline_) {
    CountDeadlineMiss(state);
  }
  if (done) FinishJob(state);
}

void ServeLoop::FinishJob(RunState& state) {
  job_running_ = false;
  if (!job_status_.ok()) {
    // A planner error past the recovery ladder degrades exactly like the
    // batch replay: the previous placement keeps serving.
    ledger_.CountReplanFault();
    MFG_OBS_COUNT("serve.replan_faults", 1);
    MFG_LOG(WARNING) << "serve epoch " << job_epoch_
                     << " replan degraded to previous placement: "
                     << job_status_;
    job_miss_counted_ = false;
    return;
  }

  // The round's record; its serving group is filled below and in
  // Publish. Copying a healthy report is allocation-free (empty degraded
  // list and dump path).
  last_health_ = hook_->last_health();
#if MFGCP_OBS_ENABLED
  {
    // Tick-latency percentiles ride the health report (FormatHealthLine's
    // serve block). Reading the live histogram is allocation-free.
    static obs::Histogram& tick_hist =
        obs::Registry::Global().GetHistogram("serve.tick_latency");
    last_health_.serve_ticks = tick_hist.Count();
    last_health_.tick_p50 = obs::QuantileFromBuckets(tick_hist, 0.50);
    last_health_.tick_p90 = obs::QuantileFromBuckets(tick_hist, 0.90);
    last_health_.tick_p99 = obs::QuantileFromBuckets(tick_hist, 0.99);
  }
  if (options_.plan_deadline_ms > 0.0) {
    // Margin left on the wall-clock budget (negative = overrun; those
    // land in the histogram's lowest bucket — the miss *count* is what
    // alerts key on, this is the shape).
    MFG_OBS_OBSERVE(
        "serve.plan_deadline_margin",
        std::chrono::duration<double>(job_deadline_ -
                                      std::chrono::steady_clock::now())
            .count());
  }
#endif
  if (last_health_.failed > 0) ++state.stats.failed_epochs;
  last_health_.mean_price = hook_->published().mean_price_overall;

  bool deferred = job_miss_counted_;  // Async overruns were counted live.
  if (options_.plan_deadline_ms <= 0.0 && DeadlineFaultFires(job_epoch_)) {
    // Synchronous mode has no wall-clock budget; only the forced
    // kPlanDeadline site defers publication (the deterministic chaos
    // path).
    CountDeadlineMiss(state);
    deferred = true;
  }
  last_health_.deadline_misses = deferred ? 1 : 0;
  job_miss_counted_ = false;
  if (deferred) {
    plan_pending_ = true;  // Swap at the next boundary instead.
  } else {
    Publish(state);
  }
}

void ServeLoop::Publish(RunState& state) {
  std::swap(front_, back_);
  interpolator_.Advance(hook_->published());
  obs::EpochRecord& row = state.stats.rows.emplace_back(last_health_);
  row.epoch = job_epoch_;
  row.seq = state.stats.publications;
  row.epoch_published = ledger_.epoch();
  row.tick = state.stats.ticks;
  row.sim_time = state.sim_now;
  ++state.stats.publications;
  state.last_pub_sim = state.sim_now;
  state.plan_closed_epochs = job_epoch_ + 1;
  state.plan_closed_at =
      static_cast<double>(state.plan_closed_epochs) * ledger_.period();
  MFG_OBS_COUNT("serve.publications", 1);
#if MFGCP_OBS_ENABLED
  // Job post → swap-in, including any deferred-publication wait — the
  // end-to-end staleness a scraper cares about.
  MFG_OBS_OBSERVE(
      "serve.plan_publish_latency",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job_post_time_)
          .count());
  // One POD record per publication feeds the admin /epochz ring (a no-op
  // while no exporter runs); the copy mutex inside is plan-round
  // granularity, never per tick.
  obs::AdminRecordEpoch(row);
#endif
  if (!state.window_armed && state.stats.publications == 2) {
    // Two publications in, every first-hit instrument and buffer is
    // warmed: open the steady-allocation window.
    state.window_armed = true;
    state.window_allocs = obs::ThreadAllocationCount();
    state.window_ticks = state.stats.ticks;
  }
}

void ServeLoop::HandleBoundary(RunState& state) {
  PollAsyncJob(state);  // Sync rounds never outlive their boundary.
  // A deferred plan swaps in at the boundary it waited for.
  if (plan_pending_) {
    plan_pending_ = false;
    Publish(state);
  }

  MFG_OBS_COUNT("serve.replans", 1);
  if (job_running_) {
    // The planner is still inside the previous round: this boundary has
    // no plan round of its own (the previous plan serves through it).
    ++state.stats.skipped_plan_rounds;
    MFG_OBS_COUNT("serve.skipped_plan_rounds", 1);
  } else if (auto fault = sim::ReplanFaultCheck(ledger_.epoch());
             !fault.ok()) {
    // kReplan fault: identical degradation to the batch replay — nothing
    // is planned, the previous placement serves the next epoch.
    ledger_.CountReplanFault();
    MFG_OBS_COUNT("serve.replan_faults", 1);
    MFG_LOG(WARNING) << "serve epoch " << ledger_.epoch()
                     << " replan degraded to previous placement: " << fault;
  } else if (!PostPlanJob()) {
    // Stop() raced this boundary: the planner is gone, so the round is
    // skipped and the previous placement serves through.
    ++state.stats.skipped_plan_rounds;
    MFG_OBS_COUNT("serve.skipped_plan_rounds", 1);
  } else {
    ++state.stats.plan_rounds;
    MFG_OBS_COUNT("serve.plan_rounds", 1);
    if (options_.plan_deadline_ms <= 0.0) {
      const auto wait_start = std::chrono::steady_clock::now();
      WaitForJob();
      MFG_OBS_OBSERVE(
          "serve.plan_wait_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wait_start)
              .count());
      FinishJob(state);
    }
  }
}

common::Status ServeLoop::Run(const sim::RequestStream& stream,
                              ServeStats& stats) {
  if (stream.empty()) {
    return common::Status::InvalidArgument("request stream is empty");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = false;
  }
  if (!planner_.joinable()) {
    // A Stop() preceded this Run: respawn the planner thread. The hook's
    // carry-forward state survived, so this behaves like a daemon reload.
    planner_ = std::thread(&ServeLoop::PlannerMain, this);
  }
  stats = ServeStats{};
  return RunLoop(stream, stats);
}

common::Status ServeLoop::RunLoop(const sim::RequestStream& stream,
                                  ServeStats& stats) {
  const std::size_t k = options_.engine.num_contents;
  front_ = &cache_a_;
  back_ = &cache_b_;
  if (auto status =
          front_->Reset(k, options_.engine.cache_capacity, prior_);
      !status.ok()) {
    return status;
  }
  if (auto status = back_->Reset(k, options_.engine.cache_capacity, prior_);
      !status.ok()) {
    return status;
  }
  interpolator_.Reset(k);
  ledger_.Reset(options_.engine, options_.engine.epoch_period);
  cursor_.Bind(stream);
  plan_pending_ = false;
  job_running_ = false;
  job_miss_counted_ = false;

  RunState state{stats};
  const double period = ledger_.period();
  const double horizon = stream.arrival_time.back();
  // One row per expected publication plus slack for deferred tails, so
  // the push_back in Publish never reallocates inside the steady window.
  stats.rows.reserve(static_cast<std::size_t>(horizon / period) + 4);

  const bool paced = clock_.paced();
  const double sim_dt = clock_.sim_dt();
  clock_.Start();

  common::Status result = common::Status::Ok();
  while (!cursor_.AtEnd()) {
    clock_.WaitForNextTick();
#if MFGCP_OBS_ENABLED
    // Tick-body latency (excludes the pacing sleep above). The clock
    // reads compile out with the telemetry layer so obs-off ticks pay
    // nothing.
    const auto tick_start = std::chrono::steady_clock::now();
#endif
    ++stats.ticks;
    double target;
    if (paced) {
      state.sim_now += sim_dt;
      target = state.sim_now;
    } else {
      // Unpaced: jump straight to whichever comes later, the next epoch
      // boundary or the next arrival, so every tick makes progress and
      // the boundary/request interleaving matches the batch replay.
      target = std::max(ledger_.next_boundary(), cursor_.NextArrival());
      state.sim_now = std::min(target, horizon);
    }

    // Serve the requests that arrived by `target` through the front
    // placement, firing the boundaries simulated time crossed; a
    // synchronous publication swaps front_ mid-drain.
    result = ledger_.DrainUntil(cursor_, target, front_,
                                [&] { HandleBoundary(state); });
    if (!result.ok()) break;

    PollAsyncJob(state);

    MFG_OBS_COUNT("serve.ticks", 1);
    MFG_OBS_GAUGE_SET("serve.sim_time", state.sim_now);
    if (interpolator_.publications() > 0) {
      const double u = (state.sim_now - state.last_pub_sim) / period;
      MFG_OBS_GAUGE_SET("serve.interp_price", interpolator_.MeanPriceAt(u));
    }
    // Plan staleness: how far the serving plan's observation lags now.
    MFG_OBS_GAUGE_SET("serve.plan_age_sim",
                      state.sim_now - state.plan_closed_at);
    MFG_OBS_GAUGE_SET(
        "serve.plan_epochs_behind",
        static_cast<double>(ledger_.epoch() - state.plan_closed_epochs));
#if MFGCP_OBS_ENABLED
    MFG_OBS_OBSERVE(
        "serve.tick_latency",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      tick_start)
            .count());
#endif
  }

  // Close the steady window before anything below touches the heap.
  if (state.window_armed) {
    stats.steady_allocs = obs::ThreadAllocationCount() - state.window_allocs;
    stats.steady_ticks = stats.ticks - state.window_ticks;
  }

  // Tail: an in-flight async round still completes (the planner must not
  // be mid-job when the next Run rebinds the buffers). A round still
  // deferred — late, or charged a forced kPlanDeadline miss — publishes
  // now: the end of the stream is the run's last boundary, so every miss
  // the summary counts has its row.
  if (job_running_) {
    WaitForJob();
    PollAsyncJob(state);
  }
  if (plan_pending_) {
    plan_pending_ = false;
    Publish(state);
  }

  stats.requests = ledger_.stats();
  stats.requests.horizon = horizon;
  stats.wall_seconds = clock_.ElapsedWallSeconds();

  MFG_OBS_COUNT("serve.requests", stats.requests.requests);
  MFG_OBS_GAUGE_SET("serve.last_hit_ratio", stats.requests.HitRatio());
  MFG_OBS_OBSERVE("serve.run_seconds", stats.wall_seconds);

  if (!result.ok()) return result;
  if (!options_.jsonl_path.empty()) return WriteServeJsonl(stats, options_);
  return common::Status::Ok();
}

common::Status WriteServeJsonl(const ServeStats& stats,
                               const ServeOptions& options) {
  std::ofstream out(options.jsonl_path);
  if (!out) {
    return common::Status::IoError("cannot open serve JSONL path: " +
                                   options.jsonl_path);
  }
  std::string line;
  for (const obs::EpochRecord& row : stats.rows) {
    line = "{\"type\":\"epoch\",";
    obs::AppendEpochRecordJson(line, row);
    line += "}\n";
    out << line;
  }
  out << std::setprecision(17);
  out << "{\"type\":\"summary\",\"ticks\":" << stats.ticks
      << ",\"publications\":" << stats.publications
      << ",\"plan_rounds\":" << stats.plan_rounds
      << ",\"deadline_misses\":" << stats.deadline_misses
      << ",\"skipped_plan_rounds\":" << stats.skipped_plan_rounds
      << ",\"failed_epochs\":" << stats.failed_epochs
      << ",\"requests\":" << stats.requests.requests
      << ",\"hits\":" << stats.requests.hits
      << ",\"misses\":" << stats.requests.misses
      << ",\"replans\":" << stats.requests.replans
      << ",\"replan_faults\":" << stats.requests.replan_faults
      << ",\"total_delay\":" << stats.requests.total_delay
      << ",\"backhaul_mb\":" << stats.requests.backhaul_mb
      << ",\"horizon\":" << stats.requests.horizon
      << ",\"steady_allocs\":" << stats.steady_allocs
      << ",\"steady_ticks\":" << stats.steady_ticks
      << ",\"wall_seconds\":" << stats.wall_seconds
      << ",\"tick_ms\":" << options.clock.tick_ms
      << ",\"plan_deadline_ms\":" << options.plan_deadline_ms
      << ",\"timescale\":";
  if (options.clock.timescale == kTimescaleInfinite) {
    out << "\"inf\"";
  } else {
    out << options.clock.timescale;
  }
  out << "}\n";
  if (!out.good()) {
    return common::Status::IoError("failed writing serve JSONL: " +
                                   options.jsonl_path);
  }
  return common::Status::Ok();
}

}  // namespace mfg::serve
