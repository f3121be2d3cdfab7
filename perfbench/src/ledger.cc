#include "ledger.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "baselines/request_cache.h"
#include "content/popularity.h"
#include "core/best_response_batch.h"
#include "core/epoch_runtime.h"
#include "core/fpk_batch.h"
#include "core/hjb_batch.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_cp.h"
#include "core/plan_publication.h"

namespace perfbench {

namespace core = mfg::core;
namespace sim = mfg::sim;
using mfg::common::Status;

namespace {

void EmptyBlock(void*, std::size_t, std::size_t, std::size_t) {}

// Work counts of the replayed solves and of the unit-cost calls; the
// best-response self time is SolveInto's wall time minus its sweeps and
// estimator calls priced at the driven unit costs.
struct SolveTally {
  double lanes = 0.0;
  double iterations = 0.0;
  double converged = 0.0;
  double hjb_lane_sweeps = 0.0;  // Block HJB sweeps x block width.
  double fpk_lane_sweeps = 0.0;
  double estimator_calls = 0.0;
  double hjb_driven_lanes = 0.0;
  double fpk_driven_lanes = 0.0;
  double estimator_driven_calls = 0.0;
};

class LedgerReplay {
 public:
  LedgerReplay(const Setup& setup, const sim::MfgPlanReplanHook& parallel,
               const sim::MfgPlanReplanHook& serial,
               mfg::content::PopularityModel popularity)
      : setup_(setup),
        parallel_(parallel),
        serial_(serial),
        popularity_model_(std::move(popularity)),
        cache_("MFG-CP"),
        runtime_(1) {}

  Status Init() {
    return cache_.Reset(setup_.engine.num_contents,
                        setup_.engine.cache_capacity, setup_.prior);
  }

  // Replays boundary `b`'s observation; `spans`/`tally` may be null (the
  // untimed warm-up).
  void Run(std::size_t b, const std::vector<std::uint64_t>& counts,
           SpanRecorder* spans, SolveTally* tally, Gate& gate) {
    const std::size_t k = counts.size();
    const auto boundary = static_cast<std::int64_t>(b);
    observation_.request_counts.assign(counts.begin(), counts.end());
    observation_.mean_timeliness.assign(k, setup_.plan.mean_timeliness);
    observation_.mean_remaining.assign(k, setup_.plan.mean_remaining);

    Status status;
    {
      ScopedSpan span(spans, "core.plan_epoch_serial", boundary);
      status = serial_.framework().PlanEpochInto(observation_,
                                                 serial_buffer_);
    }
    gate.Expect(status.ok(), "serial PlanEpochInto: " + status.ToString());
    {
      ScopedSpan span(spans, "core.plan_epoch_parallel", boundary);
      status = parallel_.framework().PlanEpochInto(observation_,
                                                   parallel_buffer_);
    }
    gate.Expect(status.ok(), "parallel PlanEpochInto: " + status.ToString());
    {
      ScopedSpan span(spans, "core.publication", boundary);
      core::ComputePlacementScores(serial_buffer_, score_);
      core::SnapshotPublishedPlan(serial_buffer_, published_);
    }
    {
      ScopedSpan span(spans, "baselines.assign", boundary);
      status = cache_.AssignTopByScore(score_);
    }
    gate.Expect(status.ok(), "AssignTopByScore: " + status.ToString());

    const core::MfgCpFramework& framework = serial_.framework();
    const std::size_t active = serial_buffer_.num_active;
    // PlanEpochInto's block width at parallelism 1.
    const std::size_t width = std::min(framework.options().batch_width,
                                       std::max<std::size_t>(1, active));
    const std::size_t nt =
        framework.options().base_params.grid.num_time_steps;
    if (equilibria_.size() < active) equilibria_.resize(active);
    if (last_good_.size() < active) last_good_.resize(active);
    params_.resize(active);

    {
      ScopedSpan root(spans, "ledger.epoch", boundary);
      {
        ScopedSpan span(spans, "content.popularity", boundary);
        status = popularity_model_.UpdateInto(observation_.request_counts,
                                              popularity_);
      }
      gate.Expect(status.ok(), "popularity update: " + status.ToString());
      for (std::size_t begin = 0; begin < active; begin += width) {
        const std::size_t lanes = std::min(width, active - begin);
        learner_.Reset(lanes);
        jobs_.resize(lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
          const std::size_t c = serial_buffer_.results[begin + i].content;
          ScopedSpan span(spans, "core.params", boundary);
          auto params = framework.ContentParams(
              c, popularity_[c], observation_.mean_timeliness[c],
              static_cast<double>(observation_.request_counts[c]));
          if (!params.ok()) {
            gate.Expect(false, "ContentParams: " + params.status().ToString());
            return;
          }
          params_[begin + i] = std::move(params).value();
        }
        for (std::size_t i = 0; i < lanes; ++i) {
          {
            ScopedSpan span(spans, "core.bind", boundary);
            status = learner_.BindLane(i, params_[begin + i]);
          }
          if (!status.ok()) {
            gate.Expect(false, "BindLane: " + status.ToString());
            return;
          }
          core::BatchBestResponseLearner::LaneJob& job = jobs_[i];
          job.epoch = b;
          job.content = serial_buffer_.results[begin + i].content;
          job.active = true;
          job.out = &equilibria_[begin + i];
          job.status = Status::Ok();
        }
        {
          ScopedSpan span(spans, "core.best_response", boundary);
          learner_.SolveInto(
              std::span<core::BatchBestResponseLearner::LaneJob>(jobs_),
              workspace_);
        }
        std::size_t hjb_sweeps = 0;
        std::size_t fpk_sweeps = 0;
        for (std::size_t i = 0; i < lanes; ++i) {
          const core::Equilibrium& eq = equilibria_[begin + i];
          gate.Expect(jobs_[i].status.ok(),
                      "replayed solve: " + jobs_[i].status.ToString());
          gate.Expect(
              eq.iterations ==
                  serial_buffer_.results[begin + i].equilibrium.iterations,
              "replayed solve of content " + std::to_string(jobs_[i].content) +
                  " took a different iteration count than PlanEpochInto");
          hjb_sweeps = std::max(hjb_sweeps, eq.iterations);
          fpk_sweeps = std::max(
              fpk_sweeps, eq.converged ? eq.iterations - 1 : eq.iterations);
          if (tally != nullptr) {
            tally->lanes += 1.0;
            tally->iterations += static_cast<double>(eq.iterations);
            tally->converged += eq.converged ? 1.0 : 0.0;
            // Alg. 2 estimates every time node once per iteration and once
            // more for the final refresh.
            tally->estimator_calls +=
                static_cast<double>((eq.iterations + 1) * (nt + 1));
          }
        }
        if (tally != nullptr) {
          // Lockstep: the block sweeps until its slowest lane is done; the
          // FPK also runs once under the initial policy guess.
          tally->hjb_lane_sweeps += static_cast<double>(hjb_sweeps * lanes);
          tally->fpk_lane_sweeps +=
              static_cast<double>((fpk_sweeps + 1) * lanes);
        }
      }
      {
        ScopedSpan span(spans, "core.epoch_runtime.dispatch", boundary);
        runtime_.RunEpochBlocks(active, width, &EmptyBlock, nullptr);
      }
      {
        ScopedSpan span(spans, "core.plan_epoch.save_last_good", boundary);
        for (std::size_t slot = 0; slot < active; ++slot) {
          if (!equilibria_[slot].converged) continue;
          last_good_[slot].params = params_[slot];
          last_good_[slot].equilibrium = equilibria_[slot];
          last_good_[slot].valid = true;
        }
      }
    }

    DriveUnits(active, width, nt, boundary, spans, tally, gate);
  }

 private:
  // Unit costs: one HJB and one FPK block sweep per block and every
  // estimator call of one iteration, on the converged inputs just solved.
  void DriveUnits(std::size_t active, std::size_t width, std::size_t nt,
                  std::int64_t boundary, SpanRecorder* spans,
                  SolveTally* tally, Gate& gate) {
    for (std::size_t begin = 0; begin < active; begin += width) {
      const std::size_t lanes = std::min(width, active - begin);
      hjb_.Reset(lanes);
      fpk_.Reset(lanes);
      hjb_io_.resize(lanes);
      fpk_io_.resize(lanes);
      hjb_out_.resize(lanes);
      fpk_out_.resize(lanes);
      initial_.resize(lanes);
      for (std::size_t i = 0; i < lanes; ++i) {
        Status status = hjb_.BindLane(i, params_[begin + i]);
        if (status.ok()) status = fpk_.BindLane(i, params_[begin + i]);
        if (status.ok()) status = fpk_.MakeInitialDensityInto(i, initial_[i]);
        if (!status.ok()) {
          gate.Expect(false, "unit-cost bind: " + status.ToString());
          return;
        }
        const core::Equilibrium& eq = equilibria_[begin + i];
        hjb_io_[i] = {&eq.mean_field, &hjb_out_[i], true, Status::Ok()};
        fpk_io_[i] = {&initial_[i], &eq.hjb.policy, &fpk_out_[i], true,
                      Status::Ok()};
      }
      {
        ScopedSpan span(spans, "core.hjb_sweep", boundary);
        hjb_.SolveInto(std::span<core::HjbBatchSolver::LaneIo>(hjb_io_),
                       hjb_workspace_);
      }
      {
        ScopedSpan span(spans, "core.fpk_sweep", boundary);
        fpk_.SolveInto(std::span<core::FpkBatchSolver::LaneIo>(fpk_io_),
                       fpk_workspace_);
      }
      for (std::size_t i = 0; i < lanes; ++i) {
        gate.Expect(hjb_io_[i].status.ok() && fpk_io_[i].status.ok(),
                    "unit-cost sweep failed");
      }
      if (tally != nullptr) {
        tally->hjb_driven_lanes += static_cast<double>(lanes);
        tally->fpk_driven_lanes += static_cast<double>(lanes);
      }
    }
    for (std::size_t slot = 0; slot < active; ++slot) {
      Status status = estimator_.has_value()
                          ? estimator_->Rebind(params_[slot])
                          : Status::Ok();
      if (!estimator_.has_value()) {
        auto created = core::MeanFieldEstimator::Create(params_[slot]);
        status = created.status();
        if (created.ok()) estimator_.emplace(std::move(created).value());
      }
      if (!status.ok()) {
        gate.Expect(false, "estimator bind: " + status.ToString());
        return;
      }
      const core::Equilibrium& eq = equilibria_[slot];
      {
        ScopedSpan span(spans, "core.estimator", boundary);
        for (std::size_t n = 0; n <= nt; ++n) {
          status = estimator_->EstimateInto(eq.fpk.densities[n],
                                            eq.hjb.policy[n],
                                            estimator_workspace_,
                                            mean_field_);
          if (!status.ok()) break;
        }
      }
      gate.Expect(status.ok(), "estimator call: " + status.ToString());
      if (tally != nullptr) {
        tally->estimator_driven_calls += static_cast<double>(nt + 1);
      }
    }
  }

  const Setup& setup_;
  const sim::MfgPlanReplanHook& parallel_;
  const sim::MfgPlanReplanHook& serial_;
  mfg::content::PopularityModel popularity_model_;
  mfg::baselines::StaticSetCache cache_;
  core::EpochRuntime runtime_;

  core::EpochObservation observation_;
  core::EpochPlanBuffer serial_buffer_;
  core::EpochPlanBuffer parallel_buffer_;
  std::vector<double> score_;
  core::PublishedPlan published_;

  std::vector<double> popularity_;
  std::vector<core::MfgParams> params_;
  std::vector<core::Equilibrium> equilibria_;
  std::vector<core::EpochPlanBuffer::LastGood> last_good_;
  core::BatchBestResponseLearner learner_;
  core::BatchBestResponseLearner::Workspace workspace_;
  std::vector<core::BatchBestResponseLearner::LaneJob> jobs_;

  core::HjbBatchSolver hjb_;
  core::HjbBatchSolver::Workspace hjb_workspace_;
  std::vector<core::HjbBatchSolver::LaneIo> hjb_io_;
  std::vector<core::HjbSolution> hjb_out_;
  core::FpkBatchSolver fpk_;
  core::FpkBatchSolver::Workspace fpk_workspace_;
  std::vector<core::FpkBatchSolver::LaneIo> fpk_io_;
  std::vector<core::FpkSolution> fpk_out_;
  std::vector<mfg::numerics::Density1D> initial_;
  std::optional<core::MeanFieldEstimator> estimator_;
  core::MeanFieldEstimator::Workspace estimator_workspace_;
  core::MeanFieldQuantities mean_field_;
};

}  // namespace

LedgerResult RunLedger(const Setup& setup,
                       const sim::MfgPlanReplanHook& parallel,
                       const sim::MfgPlanReplanHook& serial,
                       const std::vector<std::vector<std::uint64_t>>& counts,
                       double budget_seconds, SpanRecorder& spans,
                       Gate& gate) {
  LedgerResult result;
  if (counts.empty()) {
    gate.Expect(false, "ledger has no captured observation");
    return result;
  }
  auto popularity = mfg::content::PopularityModel::CreateZipf(
      setup.engine.num_contents, kZipfIota);
  if (!popularity.ok()) {
    gate.Expect(false, "popularity model: " + popularity.status().ToString());
    return result;
  }
  LedgerReplay replay(setup, parallel, serial, std::move(popularity).value());
  if (Status status = replay.Init(); !status.ok()) {
    gate.Expect(false, "ledger cache: " + status.ToString());
    return result;
  }

  replay.Run(0, counts[0], nullptr, nullptr, gate);  // Warm-up.
  SolveTally tally;
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0;
       b < counts.size() && (b == 0 || SecondsSince(start) < budget_seconds);
       ++b) {
    replay.Run(b, counts[b], &spans, &tally, gate);
  }

  const std::map<std::string, SpanRecorder::Totals> totals = spans.Aggregate();
  auto get = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::Totals{} : it->second;
  };
  auto per = [](double seconds, double count, double scale) {
    return count > 0.0 ? seconds / count * scale : 0.0;
  };
  const SpanRecorder::Totals serial_epoch = get("core.plan_epoch_serial");
  const SpanRecorder::Totals parallel_epoch = get("core.plan_epoch_parallel");
  const SpanRecorder::Totals popularity_span = get("content.popularity");
  const SpanRecorder::Totals params_span = get("core.params");
  const SpanRecorder::Totals bind_span = get("core.bind");
  const SpanRecorder::Totals solve_span = get("core.best_response");
  const SpanRecorder::Totals hjb_span = get("core.hjb_sweep");
  const SpanRecorder::Totals fpk_span = get("core.fpk_sweep");
  const SpanRecorder::Totals estimator_span = get("core.estimator");
  const SpanRecorder::Totals dispatch_span =
      get("core.epoch_runtime.dispatch");
  const SpanRecorder::Totals save_span = get("core.plan_epoch.save_last_good");
  const SpanRecorder::Totals publication_span = get("core.publication");
  const SpanRecorder::Totals assign_span = get("baselines.assign");

  result.epochs = serial_epoch.count;
  const double epochs = static_cast<double>(serial_epoch.count);
  result.popularity_us_per_epoch =
      per(popularity_span.self_seconds, epochs, 1e6);
  result.params_us_per_content = per(
      params_span.self_seconds, static_cast<double>(params_span.count), 1e6);
  result.bind_us_per_content = per(
      bind_span.self_seconds, static_cast<double>(bind_span.count), 1e6);
  const double hjb_lane = per(hjb_span.seconds, tally.hjb_driven_lanes, 1.0);
  const double fpk_lane = per(fpk_span.seconds, tally.fpk_driven_lanes, 1.0);
  const double estimator_call =
      per(estimator_span.seconds, tally.estimator_driven_calls, 1.0);
  result.hjb_us_per_lane_sweep = hjb_lane * 1e6;
  result.fpk_us_per_lane_sweep = fpk_lane * 1e6;
  result.estimator_us_per_call = estimator_call * 1e6;
  result.iterations_per_content = per(tally.iterations, tally.lanes, 1.0);
  result.converged_share = per(tally.converged, tally.lanes, 1.0);
  const double solve_children = tally.hjb_lane_sweeps * hjb_lane +
                                tally.fpk_lane_sweeps * fpk_lane +
                                tally.estimator_calls * estimator_call;
  result.best_response_self_us_per_content =
      per(solve_span.self_seconds - solve_children, tally.lanes, 1e6);
  result.plan_epoch_serial_ms = per(serial_epoch.seconds, epochs, 1e3);
  const double plan_epoch_self =
      dispatch_span.self_seconds + save_span.self_seconds;
  result.plan_epoch_self_share =
      per(plan_epoch_self, serial_epoch.seconds, 1.0);
  const double workers = static_cast<double>(
      parallel.framework().epoch_runtime().num_workers());
  result.parallel_efficiency =
      per(serial_epoch.seconds, workers * parallel_epoch.seconds, 1.0);
  result.publication_us_per_epoch =
      per(publication_span.self_seconds, epochs, 1e6);
  result.assign_us_per_epoch = per(assign_span.self_seconds, epochs, 1e6);
  const double attributed =
      popularity_span.self_seconds + params_span.self_seconds +
      bind_span.self_seconds + solve_span.self_seconds + plan_epoch_self;
  result.unattributed_share =
      1.0 - per(attributed, serial_epoch.seconds, 1.0);
  return result;
}

}  // namespace perfbench
