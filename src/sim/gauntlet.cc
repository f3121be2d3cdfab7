#include "sim/gauntlet.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/csv.h"
#include "content/catalog.h"
#include "content/popularity.h"
#include "content/timeliness.h"
#include "obs/obs.h"

namespace mfg::sim {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

common::CsvWriter BuildGauntletCsv(
    const std::vector<GauntletOutcome>& outcomes) {
  common::CsvWriter writer({"scheme", "capacity", "requests", "hits", "misses",
                            "hit_ratio", "mean_delay", "backhaul_mb",
                            "backhaul_rate", "replans", "replan_faults",
                            "replay_seconds"});
  for (const GauntletOutcome& o : outcomes) {
    writer.AddRow({o.scheme, std::to_string(o.capacity),
                   std::to_string(o.stats.requests),
                   std::to_string(o.stats.hits),
                   std::to_string(o.stats.misses),
                   FormatDouble(o.stats.HitRatio()),
                   FormatDouble(o.stats.MeanDelay()),
                   FormatDouble(o.stats.backhaul_mb),
                   FormatDouble(o.stats.BackhaulRate()),
                   std::to_string(o.stats.replans),
                   std::to_string(o.stats.replan_faults),
                   FormatDouble(o.replay_seconds)});
  }
  return writer;
}

}  // namespace

std::string_view GauntletSchemeName(GauntletScheme scheme) {
  switch (scheme) {
    case GauntletScheme::kMfgPlan:
      return "MFG-CP";
    case GauntletScheme::kLru:
      return "LRU";
    case GauntletScheme::kLfu:
      return "LFU";
    case GauntletScheme::kPopularityGreedy:
      return "PG";
    case GauntletScheme::kStaticMostPopular:
      return "MPC";
    case GauntletScheme::kOfflineBound:
      return "OPT";
  }
  return "unknown";
}

bool ParseGauntletScheme(std::string_view text, GauntletScheme& out) {
  for (GauntletScheme scheme : AllGauntletSchemes()) {
    if (text == GauntletSchemeName(scheme)) {
      out = scheme;
      return true;
    }
  }
  return false;
}

std::vector<GauntletScheme> AllGauntletSchemes() {
  return {GauntletScheme::kMfgPlan,           GauntletScheme::kLru,
          GauntletScheme::kLfu,               GauntletScheme::kPopularityGreedy,
          GauntletScheme::kStaticMostPopular, GauntletScheme::kOfflineBound};
}

common::StatusOr<std::unique_ptr<MfgPlanReplanHook>> MfgPlanReplanHook::Create(
    const Options& options, std::size_t num_contents, double content_size_mb,
    double zipf_iota) {
  auto catalog = content::Catalog::CreateUniform(num_contents, content_size_mb);
  if (!catalog.ok()) return catalog.status();
  auto popularity = content::PopularityModel::CreateZipf(num_contents,
                                                         zipf_iota);
  if (!popularity.ok()) return popularity.status();
  auto timeliness = content::TimelinessModel::Create(
      content::TimelinessParams());
  if (!timeliness.ok()) return timeliness.status();
  auto framework = core::MfgCpFramework::Create(
      options.planner, catalog.value(), popularity.value(),
      timeliness.value());
  if (!framework.ok()) return framework.status();
  return std::unique_ptr<MfgPlanReplanHook>(
      new MfgPlanReplanHook(options, std::move(framework).value()));
}

common::Status MfgPlanReplanHook::OnEpochBoundary(
    std::size_t epoch, std::span<const std::uint64_t> epoch_counts,
    baselines::RequestCachePolicy& policy) {
  auto* cache = dynamic_cast<baselines::StaticSetCache*>(&policy);
  if (cache == nullptr) {
    return common::Status::InvalidArgument(
        "MfgPlanReplanHook drives a StaticSetCache placement");
  }
  const std::size_t k = framework_.catalog().size();
  if (epoch_counts.size() != k) {
    return common::Status::InvalidArgument(
        "epoch_counts arity does not match the planner catalog");
  }
  // The finished epoch's observation: counts from the replay, constant
  // timeliness/remaining fields (the request stream carries no per-request
  // urgency; the constants match the repo's epoch-bench scenario).
  observation_.request_counts.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    observation_.request_counts[i] = static_cast<std::size_t>(epoch_counts[i]);
  }
  observation_.mean_timeliness.assign(k, options_.mean_timeliness);
  observation_.mean_remaining.assign(k, options_.mean_remaining);

  MFG_OBS_SCOPED_TIMER("sim.gauntlet.plan_seconds");
  if (auto status =
          framework_.PlanEpochInto(observation_, plan_buffer_, &last_health_);
      !status.ok()) {
    return status;
  }

  // Plan → placement: score every content as updated popularity times its
  // planned mean caching rate (the equilibrium control surface averaged
  // over (t, q)); inactive contents keep a small popularity-only score so
  // leftover capacity still fills deterministically by popularity rank.
  // One snapshot walks each policy once and carries both the scores and
  // what the serving runtime publishes.
  core::SnapshotPublishedPlan(plan_buffer_, published_);
  published_.epoch = epoch;
  return cache->AssignTopByScore(published_.score);
}

common::StatusOr<std::vector<GauntletOutcome>> RunGauntlet(
    const GauntletOptions& options) {
  if (options.capacities.empty()) {
    return common::Status::InvalidArgument("capacities must be non-empty");
  }
  if (options.engine.num_contents != options.stream.num_contents) {
    return common::Status::InvalidArgument(
        "engine and stream disagree on num_contents");
  }
  const std::vector<GauntletScheme> schemes =
      options.schemes.empty() ? AllGauntletSchemes() : options.schemes;

  // One stream for every (scheme, capacity) cell: common random numbers.
  RequestStream stream;
  if (auto status =
          GenerateRequestStreamInto(options.stream, options.trace, stream);
      !status.ok()) {
    return status;
  }
  const std::size_t k = options.stream.num_contents;

  // The static schemes' priors: MPC ranks by the Zipf prior the planner
  // also starts from; OPT ranks by the realized whole-stream counts.
  auto prior_model = content::PopularityModel::CreateZipf(
      k, options.stream.zipf_iota);
  if (!prior_model.ok()) return prior_model.status();
  const std::vector<double>& prior = prior_model.value().prior();

  std::vector<std::uint64_t> realized_counts;
  stream.CountRequestsInto(0, stream.size(), k, realized_counts);
  std::vector<double> realized_score(k);
  for (std::size_t i = 0; i < k; ++i) {
    realized_score[i] = static_cast<double>(realized_counts[i]);
  }

  baselines::LruCache lru;
  baselines::LfuCache lfu;
  baselines::PopularityGreedyCache greedy;
  baselines::StaticSetCache most_popular("MPC");
  baselines::StaticSetCache offline_bound("OPT");
  baselines::StaticSetCache mfg_cache("MFG-CP");
  std::vector<std::uint32_t> top_scratch;

  RequestEngine::Workspace workspace;
  std::vector<GauntletOutcome> outcomes;
  outcomes.reserve(schemes.size() * options.capacities.size());

  for (std::size_t capacity : options.capacities) {
    RequestEngineOptions engine_options = options.engine;
    engine_options.cache_capacity = capacity;
    for (GauntletScheme scheme : schemes) {
      baselines::RequestCachePolicy* policy = nullptr;
      ReplanHook* hook = nullptr;
      std::unique_ptr<MfgPlanReplanHook> plan_hook;
      switch (scheme) {
        case GauntletScheme::kLru:
          policy = &lru;
          break;
        case GauntletScheme::kLfu:
          policy = &lfu;
          break;
        case GauntletScheme::kPopularityGreedy:
          policy = &greedy;
          break;
        case GauntletScheme::kStaticMostPopular:
          policy = &most_popular;
          break;
        case GauntletScheme::kOfflineBound:
          policy = &offline_bound;
          break;
        case GauntletScheme::kMfgPlan: {
          // A fresh planner per cell: no carry-forward or fault-plan state
          // leaks between sweep points, so each cell is independently
          // reproducible.
          auto created = MfgPlanReplanHook::Create(
              options.plan, k, engine_options.content_size_mb,
              options.stream.zipf_iota);
          if (!created.ok()) return created.status();
          plan_hook = std::move(created).value();
          policy = &mfg_cache;
          hook = plan_hook.get();
          break;
        }
      }
      if (policy == nullptr) {
        return common::Status::InvalidArgument("unknown gauntlet scheme");
      }
      if (auto status = policy->Reset(k, capacity, prior); !status.ok()) {
        return status;
      }
      if (scheme == GauntletScheme::kOfflineBound) {
        baselines::SelectTopByScore(realized_score, capacity, top_scratch);
        if (auto status = offline_bound.Assign(top_scratch); !status.ok()) {
          return status;
        }
      }
      if (scheme == GauntletScheme::kMfgPlan &&
          engine_options.epoch_period <= 0.0) {
        return common::Status::InvalidArgument(
            "MFG-CP scheme needs engine.epoch_period > 0");
      }

      const RequestEngine engine(engine_options);
      GauntletOutcome outcome;
      outcome.scheme = std::string(GauntletSchemeName(scheme));
      outcome.capacity = capacity;
      const auto start = std::chrono::steady_clock::now();
      if (auto status = engine.ReplayInto(stream, *policy, hook, workspace,
                                          outcome.stats);
          !status.ok()) {
        return status;
      }
      outcome.replay_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      MFG_OBS_COUNT("sim.gauntlet.cells", 1);
      outcomes.push_back(std::move(outcome));
    }
  }
  return outcomes;
}

std::string GauntletOutcomesCsv(const std::vector<GauntletOutcome>& outcomes) {
  return BuildGauntletCsv(outcomes).ToString();
}

common::Status WriteGauntletCsv(const std::string& path,
                                const std::vector<GauntletOutcome>& outcomes) {
  return BuildGauntletCsv(outcomes).WriteFile(path);
}

}  // namespace mfg::sim
