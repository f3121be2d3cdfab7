#include "pipeline.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "baselines/request_cache.h"
#include "content/popularity.h"
#include "core/equilibrium_metrics.h"
#include "core/mfg_cp.h"
#include "obs/alloc_probe.h"

namespace perfbench {

namespace sim = mfg::sim;
namespace core = mfg::core;
namespace serve = mfg::serve;
namespace baselines = mfg::baselines;
using mfg::common::Status;
using mfg::common::StatusOr;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"replan_drift", sim::ArrivalProcess::kTrace, 64, 16, 0, 48, 1u << 20,
     0.55, 0.15, 0.3},
    {"request_sweep", sim::ArrivalProcess::kPoisson, 4096, 32, 128, 16,
     2u << 20, 0.3, 0.45, 0.25},
    {"serve_paced", sim::ArrivalProcess::kPoisson, 64, 16, 0, 48, 1u << 20,
     0.3, 0.15, 0.55},
};

// Each input stream gets its own seed derived from the run seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool SameLedger(const sim::RequestReplayStats& a,
                const sim::RequestReplayStats& b) {
  return a.requests == b.requests && a.hits == b.hits &&
         a.misses == b.misses && a.total_delay == b.total_delay &&
         a.backhaul_mb == b.backhaul_mb && a.replans == b.replans &&
         a.replan_faults == b.replan_faults;
}

// Wraps the MFG-CP replan hook, timing each OnEpochBoundary (plan, score
// and re-place). Ladder outcomes and worker balance are read after the
// timed region closes.
class TimedReplanHook final : public sim::ReplanHook {
 public:
  TimedReplanHook(sim::MfgPlanReplanHook& inner, ReplanPassResult& out)
      : inner_(inner), out_(out) {}

  void StartReplay(SpanRecorder* spans) {
    spans_ = spans;
    pool_allocations_ = 0;
  }
  std::size_t pool_allocations() const { return pool_allocations_; }

  Status OnEpochBoundary(std::size_t epoch,
                         std::span<const std::uint64_t> epoch_counts,
                         baselines::RequestCachePolicy& policy) override {
    Status status;
    {
      ScopedSpan span(spans_, "sim.replan", static_cast<std::int64_t>(epoch));
      const Clock::time_point start = Clock::now();
      status = inner_.OnEpochBoundary(epoch, epoch_counts, policy);
      out_.replan_seconds.push_back(SecondsSince(start));
    }
    const core::EpochPlanBuffer& buffer = inner_.plan_buffer();
    bool failed = !status.ok();
    if (status.ok()) {
      for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
        const core::SlotOutcome outcome = buffer.outcomes[slot];
        if (outcome == core::SlotOutcome::kSolved) ++out_.solved_slots;
        if (outcome == core::SlotOutcome::kFailed ||
            outcome == core::SlotOutcome::kFallback) {
          failed = true;
        }
      }
      out_.active_slots += buffer.num_active;
    }
    ++out_.boundaries;
    if (failed) ++out_.failed_boundaries;

    const core::EpochRuntime& runtime = inner_.framework().epoch_runtime();
    std::size_t total = 0;
    std::size_t busiest = 0;
    for (std::size_t w = 0; w < runtime.num_workers(); ++w) {
      total += runtime.worker(w).contents_solved;
      busiest = std::max(busiest, runtime.worker(w).contents_solved);
    }
    if (total > 0) {
      out_.worker_share_sum +=
          static_cast<double>(busiest) / static_cast<double>(total);
      ++out_.worker_share_count;
    }
    pool_allocations_ += runtime.last_epoch_allocations();
    return status;
  }

 private:
  sim::MfgPlanReplanHook& inner_;
  ReplanPassResult& out_;
  SpanRecorder* spans_ = nullptr;
  std::size_t pool_allocations_ = 0;
};

// Moves the calling thread to the next CPU of its affinity set before each
// timed request-path call. On a shared host one core can run ~30% slower
// than the others for seconds at a time (a busy neighbour); rotating puts
// every run on all cores alike instead of letting one core decide it. The
// original affinity is restored on destruction.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

std::uint64_t HashPlan(const core::Equilibrium& equilibrium) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const mfg::numerics::TimeField2D* field :
       {&equilibrium.hjb.value, &equilibrium.hjb.policy}) {
    for (const double value : field->flat()) {
      std::uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      for (int byte = 0; byte < 8; ++byte) {
        hash = (hash ^ ((bits >> (8 * byte)) & 0xFF)) * 0x100000001B3ULL;
      }
    }
  }
  return hash;
}

// Untimed capture of every boundary's counts, plan hashes and (optionally)
// plan exploitability.
class CaptureHook final : public sim::ReplanHook {
 public:
  CaptureHook(sim::MfgPlanReplanHook& inner, bool exploitability,
              CaptureResult& out, Gate& gate)
      : inner_(inner),
        exploitability_(exploitability),
        out_(out),
        gate_(gate) {}

  Status OnEpochBoundary(std::size_t epoch,
                         std::span<const std::uint64_t> epoch_counts,
                         baselines::RequestCachePolicy& policy) override {
    Status status = inner_.OnEpochBoundary(epoch, epoch_counts, policy);
    out_.counts.emplace_back(epoch_counts.begin(), epoch_counts.end());
    if (!status.ok()) return status;
    const core::EpochPlanBuffer& buffer = inner_.plan_buffer();
    for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
      if (buffer.outcomes[slot] == core::SlotOutcome::kFailed) continue;
      const core::EpochContentResult& result = buffer.results[slot];
      out_.plan_hashes.push_back(HashPlan(result.equilibrium));
      if (!exploitability_) continue;
      auto report =
          core::ComputeExploitability(result.params, result.equilibrium);
      if (!report.ok()) {
        gate_.Expect(false, "exploitability of content " +
                                std::to_string(result.content) +
                                " at boundary " + std::to_string(epoch) +
                                ": " + report.status().ToString());
        continue;
      }
      out_.gaps.push_back(report->RelativeGap());
    }
    return status;
  }

 private:
  sim::MfgPlanReplanHook& inner_;
  const bool exploitability_;
  CaptureResult& out_;
  Gate& gate_;
};

// A null `trace` gives a Poisson Zipf stream.
StatusOr<sim::RequestStream> MakeStream(const WorkloadSpec& spec,
                                        const mfg::content::Trace* trace,
                                        std::size_t requests,
                                        std::uint64_t seed) {
  sim::RequestStreamOptions options;
  options.num_contents = spec.num_contents;
  options.num_requests = requests;
  options.arrival_rate = kArrivalRate;
  options.zipf_iota = kZipfIota;
  options.arrival = trace != nullptr ? sim::ArrivalProcess::kTrace
                                     : sim::ArrivalProcess::kPoisson;
  options.seed = seed;
  options.trace_day_period = kTraceDayPeriod;
  return sim::GenerateRequestStream(options, trace);
}

}  // namespace

void Gate::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

StatusOr<std::unique_ptr<Setup>> BuildSetup(const RunConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  const std::size_t k = spec.num_contents;
  auto setup = std::make_unique<Setup>();

  auto prior = mfg::content::ZipfDistribution(k, kZipfIota);
  if (!prior.ok()) return prior.status();
  setup->prior = std::move(prior).value();

  const mfg::content::Trace* trace = nullptr;
  if (spec.arrival == sim::ArrivalProcess::kTrace) {
    mfg::content::SyntheticTraceOptions options;
    options.num_categories = k;
    options.num_days = kTraceDays;
    options.zipf_iota = kZipfIota;
    mfg::common::Rng rng(DeriveSeed(config.seed, 0));
    auto generated = mfg::content::GenerateSyntheticTrace(options, rng);
    if (!generated.ok()) return generated.status();
    setup->trace = std::move(generated).value();
    trace = &setup->trace;
  }

  // The replan stream ends half an epoch past its last boundary, so every
  // boundary fires and the last plan serves some requests.
  const std::size_t replan_requests = static_cast<std::size_t>(
      kArrivalRate * kEpochPeriod *
      (static_cast<double>(spec.replan_epochs) + 0.5));
  setup->serve_timescale = kEpochPeriod / kServeEpochWallSeconds;
  const double serve_wall =
      std::max(config.seconds * spec.serve_share / kSlices,
               3.5 * kServeEpochWallSeconds);
  const std::size_t serve_requests = static_cast<std::size_t>(
      kArrivalRate * setup->serve_timescale * serve_wall);

  auto replan = MakeStream(spec, trace, replan_requests,
                           DeriveSeed(config.seed, 1));
  if (!replan.ok()) return replan.status();
  setup->replan_stream = std::move(replan).value();
  // Only the replan pass follows the trace. The request and serve passes
  // use Poisson streams in every workload: a trace makes their speed depend
  // on the seed's popularity path, which their metrics do not measure.
  auto request = MakeStream(spec, nullptr, spec.request_stream_requests,
                            DeriveSeed(config.seed, 2));
  if (!request.ok()) return request.status();
  setup->request_stream = std::move(request).value();
  auto served = MakeStream(spec, nullptr, serve_requests,
                           DeriveSeed(config.seed, 3));
  if (!served.ok()) return served.status();
  setup->serve_stream = std::move(served).value();

  // The default planner: 41 x 50 grid, 25 Alg. 2 iterations, 8 lanes.
  core::MfgCpOptions planner;
  planner.base_params.grid.num_q_nodes = 41;
  planner.base_params.grid.num_time_steps = 50;
  planner.base_params.learning.max_iterations = 25;
  planner.batch_width = 8;
  planner.parallelism = config.replan_parallelism;
  if (spec.planned_contents > 0) {
    planner.min_requests = kArrivalRate * kEpochPeriod *
                           setup->prior[spec.planned_contents - 1];
  }
  setup->plan.planner = planner;

  setup->engine.num_contents = k;
  setup->engine.cache_capacity = spec.capacity;
  setup->engine.epoch_period = kEpochPeriod;
  setup->static_engine = setup->engine;
  setup->static_engine.epoch_period =
      2.0 * setup->request_stream.arrival_time.back() + kEpochPeriod;

  auto hook = CreateReplanHook(*setup, config.replan_parallelism);
  if (!hook.ok()) return hook.status();
  setup->replan_hook = std::move(hook).value();

  serve::ServeOptions request_options;
  request_options.engine = setup->static_engine;
  request_options.plan = setup->plan;
  request_options.plan.planner.parallelism = 1;
  request_options.zipf_iota = kZipfIota;
  auto request_loop = serve::ServeLoop::Create(request_options);
  if (!request_loop.ok()) return request_loop.status();
  setup->request_loop = std::move(request_loop).value();

  serve::ServeOptions serve_options;
  serve_options.engine = setup->engine;
  serve_options.plan = setup->plan;
  serve_options.plan.planner.parallelism = config.serve_parallelism;
  serve_options.clock.timescale = setup->serve_timescale;
  serve_options.clock.tick_ms = kServeTickMs;
  serve_options.plan_deadline_ms = kServeDeadlineMs;
  serve_options.zipf_iota = kZipfIota;
  auto serve_loop = serve::ServeLoop::Create(serve_options);
  if (!serve_loop.ok()) return serve_loop.status();
  setup->serve_loop = std::move(serve_loop).value();

  // Warm-up replans on the first epoch's counts: the first fills every
  // worker's buffers (round-robin warm-up epoch), the second runs warm.
  const auto& times = setup->replan_stream.arrival_time;
  const std::size_t first_epoch_end = static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), kEpochPeriod) -
      times.begin());
  std::vector<std::uint64_t> counts;
  setup->replan_stream.CountRequestsInto(0, first_epoch_end, k, counts);
  baselines::StaticSetCache cache("MFG-CP");
  if (auto status = cache.Reset(k, spec.capacity, setup->prior); !status.ok()) {
    return status;
  }
  for (std::size_t i = 0; i < 2; ++i) {
    if (auto status = setup->replan_hook->OnEpochBoundary(i, counts, cache);
        !status.ok()) {
      return status;
    }
  }
  return setup;
}

StatusOr<std::unique_ptr<sim::MfgPlanReplanHook>> CreateReplanHook(
    const Setup& setup, std::size_t parallelism) {
  sim::MfgPlanReplanHook::Options options = setup.plan;
  options.planner.parallelism = parallelism;
  return sim::MfgPlanReplanHook::Create(options, setup.engine.num_contents,
                                        setup.engine.content_size_mb,
                                        kZipfIota);
}

ReplanPass::ReplanPass(Setup& setup)
    : setup_(setup), engine_(setup.engine), cache_("MFG-CP") {
  // Sized so no replay ever grows these vectors (the replay thread must
  // stay allocation-free).
  result_.replan_seconds.reserve(1 << 16);
  result_.replay_seconds.reserve(1 << 12);
  result_.traced_replay_seconds.reserve(1 << 12);
}

void ReplanPass::Run(double budget_seconds, SpanRecorder* spans, Gate& gate) {
  ReplanPassResult& result = result_;
  TimedReplanHook hook(*setup_.replan_hook, result);
  const Clock::time_point pass_start = Clock::now();
  do {
    const std::size_t replay = result.replays++;
    const bool traced = spans != nullptr && replay % 2 == 1;
    SpanRecorder* recorder = traced ? spans : nullptr;
    if (auto status = cache_.Reset(setup_.engine.num_contents,
                                   setup_.engine.cache_capacity, setup_.prior);
        !status.ok()) {
      gate.Expect(false, "MFG-CP cache reset: " + status.ToString());
      return;
    }
    hook.StartReplay(recorder);
    sim::RequestReplayStats stats;
    const std::size_t allocations_before = mfg::obs::ThreadAllocationCount();
    const Clock::time_point start = Clock::now();
    Status status;
    {
      ScopedSpan span(recorder, "sim.replay");
      status = engine_.ReplayInto(setup_.replan_stream, cache_, &hook,
                                  workspace_, stats);
    }
    const double seconds = SecondsSince(start);
    const std::size_t allocations =
        mfg::obs::ThreadAllocationCount() - allocations_before;
    if (!status.ok()) {
      gate.Expect(false, "replanning replay: " + status.ToString());
      return;
    }
    if (replay == 0) {
      result.stats = stats;
    } else {
      gate.Expect(SameLedger(stats, result.stats),
                  "replanning replays of one stream disagree");
    }
    // The first replay warms the replay workspace and the plan buffer's
    // high-water mark; every later untraced one must not allocate.
    if (replay >= 1 && !traced) {
      gate.Expect(allocations == 0,
                  "warmed replanning replay allocated " +
                      std::to_string(allocations) + " times on the replay "
                      "thread");
      result.pool_allocations += hook.pool_allocations();
    }
    (traced ? result.traced_replay_seconds : result.replay_seconds)
        .push_back(seconds);
    result.requests += static_cast<double>(stats.requests);
  } while (SecondsSince(pass_start) < budget_seconds);
}

StatusOr<CaptureResult> CaptureReplay(const Setup& setup,
                                      sim::MfgPlanReplanHook& hook,
                                      bool exploitability, Gate& gate) {
  CaptureResult result;
  CaptureHook capture(hook, exploitability, result, gate);
  baselines::StaticSetCache cache("MFG-CP");
  if (auto status = cache.Reset(setup.engine.num_contents,
                                setup.engine.cache_capacity, setup.prior);
      !status.ok()) {
    return status;
  }
  const sim::RequestEngine engine(setup.engine);
  sim::RequestEngine::Workspace workspace;
  if (auto status = engine.ReplayInto(setup.replan_stream, cache, &capture,
                                      workspace, result.stats);
      !status.ok()) {
    return status;
  }
  return result;
}

RequestPass::RequestPass(Setup& setup)
    : setup_(setup), engine_(setup.static_engine), fixed_("MPC") {}

void RequestPass::Run(double budget_seconds, SpanRecorder* spans,
                      Gate& gate) {
  const std::size_t k = setup_.static_engine.num_contents;
  const std::size_t capacity = setup_.static_engine.cache_capacity;
  const sim::RequestStream& stream = setup_.request_stream;
  struct Entry {
    std::string_view span;
    baselines::RequestCachePolicy* policy;
  };
  const Entry entries[] = {{"baselines.lru", &lru_},
                           {"baselines.lfu", &lfu_},
                           {"baselines.pg", &greedy_},
                           {"baselines.static", &fixed_}};

  CoreRotation rotation;
  const Clock::time_point pass_start = Clock::now();
  do {
    const bool first_round = result_.round_rates.empty();
    double round_seconds = 0.0;
    double round_requests = 0.0;
    sim::RequestReplayStats static_stats;
    for (const Entry& entry : entries) {
      baselines::RequestCachePolicy& policy = *entry.policy;
      if (auto status = policy.Reset(k, capacity, setup_.prior);
          !status.ok()) {
        gate.Expect(false, std::string(policy.name()) +
                               " reset: " + status.ToString());
        return;
      }
      sim::RequestReplayStats stats;
      rotation.Next();
      const std::size_t allocations_before =
          mfg::obs::ThreadAllocationCount();
      const Clock::time_point start = Clock::now();
      Status status;
      {
        ScopedSpan span(spans, entry.span);
        status = engine_.ReplayInto(stream, policy, nullptr, workspace_, stats);
      }
      const double seconds = SecondsSince(start);
      const std::size_t allocations =
          mfg::obs::ThreadAllocationCount() - allocations_before;
      if (!status.ok()) {
        gate.Expect(false, std::string(policy.name()) +
                               " replay: " + status.ToString());
        return;
      }
      if (!first_round) {
        gate.Expect(allocations == 0,
                    std::string(policy.name()) + " replay allocated " +
                        std::to_string(allocations) + " times when warm");
      }
      if (&policy == &fixed_) static_stats = stats;
      round_seconds += seconds;
      round_requests += static_cast<double>(stats.requests);
    }

    rotation.Next();
    const Clock::time_point start = Clock::now();
    Status status;
    {
      ScopedSpan span(spans, "serve.request_path");
      status = setup_.request_loop->Run(stream, serve_stats_);
    }
    const double seconds = SecondsSince(start);
    if (!status.ok()) {
      gate.Expect(false, "unpaced serve run: " + status.ToString());
      return;
    }
    if (first_round) {
      // serve_equivalence_test's contract: unpaced synchronous serving is
      // bit-identical to ReplayInto on the same placement.
      gate.Expect(SameLedger(serve_stats_.requests, static_stats),
                  "ServeLoop ledger differs from ReplayInto on the static "
                  "placement");
      gate.Expect(serve_stats_.plan_rounds == 0,
                  "request-path serve run reached a plan round");
      CheckOfflineBound(static_stats.HitRatio(), gate);
    }
    round_seconds += seconds;
    round_requests += static_cast<double>(serve_stats_.requests.requests);
    result_.round_rates.push_back(round_requests / round_seconds);
    result_.requests += round_requests;
  } while (SecondsSince(pass_start) < budget_seconds);
}

// The offline bound (top capacity of the realized counts), replayed once
// outside the timed rounds: OPT must hit at least as often as MPC.
void RequestPass::CheckOfflineBound(double static_hit_ratio, Gate& gate) {
  const std::size_t k = setup_.static_engine.num_contents;
  const std::size_t capacity = setup_.static_engine.cache_capacity;
  const sim::RequestStream& stream = setup_.request_stream;
  std::vector<std::uint64_t> counts;
  stream.CountRequestsInto(0, stream.size(), k, counts);
  std::vector<double> score(counts.begin(), counts.end());
  std::vector<std::uint32_t> top;
  baselines::SelectTopByScore(score, capacity, top);
  baselines::StaticSetCache offline("OPT");
  sim::RequestReplayStats stats;
  Status status = offline.Reset(k, capacity, {});
  if (status.ok()) status = offline.Assign(top);
  if (status.ok()) {
    status = engine_.ReplayInto(stream, offline, nullptr, workspace_, stats);
  }
  gate.Expect(status.ok(), "offline-bound replay: " + status.ToString());
  gate.Expect(stats.HitRatio() >= static_hit_ratio,
              "OPT hit ratio " + std::to_string(stats.HitRatio()) +
                  " is below MPC " + std::to_string(static_hit_ratio));
}

void RunServePass(Setup& setup, SpanRecorder* spans, Gate& gate,
                  ServePassResult& result) {
  serve::ServeStats stats;
  Status status;
  {
    ScopedSpan span(spans, "serve.paced_run");
    status = setup.serve_loop->Run(setup.serve_stream, stats);
  }
  if (!status.ok()) {
    gate.Expect(false, "paced serve run: " + status.ToString());
    return;
  }
  gate.Expect(stats.publications > 0, "paced serve run published no plan");
  if (stats.steady_ticks > 0) {
    gate.Expect(stats.steady_allocs == 0,
                "warmed serve thread allocated " +
                    std::to_string(stats.steady_allocs) + " times");
  }
  result.requests += stats.requests.requests;
  result.plan_rounds += stats.plan_rounds;
  result.skipped_plan_rounds += stats.skipped_plan_rounds;
  result.deadline_misses += stats.deadline_misses;
  for (const serve::ServeEpochRow& row : stats.rows) {
    const double boundary =
        static_cast<double>(row.epoch + 1) * kEpochPeriod;
    result.lag_ms.push_back((row.sim_time - boundary) /
                            setup.serve_timescale * 1e3);
    result.plan_ms.push_back(row.plan_seconds * 1e3);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
