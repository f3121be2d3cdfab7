#include "sim/epoch_runner.h"

#include <algorithm>
#include <string>

#include "baselines/most_popular.h"
#include "common/csv.h"
#include "common/logging.h"
#include "content/popularity.h"
#include "content/timeliness.h"
#include "obs/epoch_record.h"

namespace mfg::sim {
namespace {

common::CsvWriter BuildEpochOutcomesCsv(
    const std::vector<EpochOutcome>& outcomes) {
  std::vector<std::string> header = {"epoch"};
  obs::AppendEpochPlannerCsvHeader(header);
  header.insert(header.end(), {"degraded_contents", "mean_utility",
                               "hit_ratio"});
  common::CsvWriter writer(std::move(header));
  for (const EpochOutcome& outcome : outcomes) {
    std::vector<std::string> row = {std::to_string(outcome.epoch)};
    obs::AppendEpochPlannerCsvRow(outcome.health, row);
    // Ids joined with ';' so the list stays one CSV field.
    std::string degraded_ids;
    for (std::size_t i = 0; i < outcome.health.degraded_contents.size();
         ++i) {
      if (i > 0) degraded_ids += ';';
      degraded_ids += std::to_string(outcome.health.degraded_contents[i]);
    }
    row.insert(row.end(), {std::move(degraded_ids),
                           std::to_string(outcome.result.MeanUtility()),
                           std::to_string(outcome.result.HitRatio())});
    writer.AddRow(row);
  }
  return writer;
}

}  // namespace

std::string EpochOutcomesCsv(const std::vector<EpochOutcome>& outcomes) {
  return BuildEpochOutcomesCsv(outcomes).ToString();
}

common::Status WriteEpochOutcomesCsv(
    const std::string& path, const std::vector<EpochOutcome>& outcomes) {
  return BuildEpochOutcomesCsv(outcomes).WriteFile(path);
}

common::StatusOr<EpochRunner> EpochRunner::Create(
    const EpochRunnerOptions& options) {
  if (options.num_epochs == 0) {
    return common::Status::InvalidArgument("need at least one epoch");
  }
  if (options.observed_requests <= 0.0) {
    return common::Status::InvalidArgument(
        "observed_requests must be positive");
  }
  if (options.initial_fill_frac <= 0.0 || options.initial_fill_frac > 1.0) {
    return common::Status::InvalidArgument(
        "initial_fill_frac must be in (0, 1]");
  }
  for (const auto& row : options.epoch_weights) {
    if (row.size() != options.simulator.num_contents) {
      return common::Status::InvalidArgument(
          "epoch weight rows must have one entry per content");
    }
  }
  MFG_ASSIGN_OR_RETURN(
      content::Catalog catalog,
      content::Catalog::CreateUniform(
          options.simulator.num_contents,
          options.simulator.base_params.content_size));
  MFG_ASSIGN_OR_RETURN(content::PopularityModel popularity,
                       content::PopularityModel::CreateZipf(
                           options.simulator.num_contents,
                           options.simulator.popularity_iota));
  MFG_ASSIGN_OR_RETURN(
      content::TimelinessModel timeliness,
      content::TimelinessModel::Create(content::TimelinessParams()));
  MFG_ASSIGN_OR_RETURN(core::MfgCpFramework framework,
                       core::MfgCpFramework::Create(
                           options.planner, catalog, popularity,
                           timeliness));
  return EpochRunner(options, std::move(framework));
}

common::StatusOr<std::vector<double>> EpochRunner::EpochWeights(
    std::size_t epoch) const {
  std::vector<double> weights;
  if (options_.epoch_weights.empty()) {
    MFG_ASSIGN_OR_RETURN(content::PopularityModel popularity,
                         content::PopularityModel::CreateZipf(
                             options_.simulator.num_contents,
                             options_.simulator.popularity_iota));
    weights = popularity.prior();
  } else {
    weights =
        options_.epoch_weights[epoch % options_.epoch_weights.size()];
  }
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    return common::Status::InvalidArgument("epoch weights sum to zero");
  }
  for (double& w : weights) w /= total;
  return weights;
}

common::StatusOr<EpochOutcome> EpochRunner::RunEpoch(
    std::size_t epoch, const SchemePolicies& scheme,
    double mean_remaining_frac) {
  SimulatorOptions sim_options = options_.simulator;
  sim_options.seed = options_.simulator.seed + epoch;
  sim_options.initial_fill_frac_mean = mean_remaining_frac;
  MFG_ASSIGN_OR_RETURN(std::vector<double> weights, EpochWeights(epoch));
  sim_options.trace_daily_weights = {weights};
  MFG_ASSIGN_OR_RETURN(Simulator simulator,
                       Simulator::Create(sim_options));
  EpochOutcome outcome;
  outcome.epoch = epoch;
  MFG_ASSIGN_OR_RETURN(outcome.result, simulator.Run(scheme));
  return outcome;
}

common::StatusOr<std::vector<EpochOutcome>> EpochRunner::Run() {
  std::vector<EpochOutcome> outcomes;
  outcomes.reserve(options_.num_epochs);
  const std::size_t k_total = options_.simulator.num_contents;
  double mean_remaining_frac = options_.initial_fill_frac;

  // Inactive contents fall back to a zero-rate policy.
  std::shared_ptr<core::CachingPolicy> idle =
      baselines::MakeMostPopular(1e-12);

  for (std::size_t epoch = 0; epoch < options_.num_epochs; ++epoch) {
    MFG_ASSIGN_OR_RETURN(std::vector<double> weights, EpochWeights(epoch));

    core::EpochObservation obs;
    obs.request_counts.resize(k_total);
    for (std::size_t k = 0; k < k_total; ++k) {
      obs.request_counts[k] = static_cast<std::size_t>(
          weights[k] * options_.observed_requests + 0.5);
    }
    obs.mean_timeliness.assign(k_total, 2.5);
    obs.mean_remaining.assign(
        k_total,
        mean_remaining_frac * options_.simulator.base_params.content_size);

    core::EpochHealthReport health;
    MFG_RETURN_IF_ERROR(framework_.PlanEpochInto(obs, plan_buffer_, &health));

    // Deploy the plan — including degraded slots: a carried-forward or
    // fallback equilibrium still yields a usable policy surface, so the
    // market trades on it like any other (ARCHITECTURE.md §5).
    SchemePolicies scheme;
    scheme.name = "MFG-CP";
    scheme.per_content.assign(k_total, idle);
    for (std::size_t slot = 0; slot < plan_buffer_.num_active; ++slot) {
      const core::EpochContentResult& result = plan_buffer_.results[slot];
      MFG_ASSIGN_OR_RETURN(
          std::unique_ptr<core::MfgPolicy> policy,
          core::MfgPolicy::Create(result.params, result.equilibrium));
      scheme.per_content[result.content] = std::move(policy);
    }

    MFG_ASSIGN_OR_RETURN(EpochOutcome outcome,
                         RunEpoch(epoch, scheme, mean_remaining_frac));
    outcome.health = std::move(health);
    mean_remaining_frac = std::clamp(
        outcome.result.per_slot.back().mean_cache_remaining /
            options_.simulator.base_params.content_size,
        0.01, 1.0);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

common::StatusOr<std::vector<EpochOutcome>> EpochRunner::RunWithScheme(
    const SchemePolicies& scheme) {
  std::vector<EpochOutcome> outcomes;
  outcomes.reserve(options_.num_epochs);
  double mean_remaining_frac = options_.initial_fill_frac;
  for (std::size_t epoch = 0; epoch < options_.num_epochs; ++epoch) {
    MFG_ASSIGN_OR_RETURN(EpochOutcome outcome,
                         RunEpoch(epoch, scheme, mean_remaining_frac));
    mean_remaining_frac = std::clamp(
        outcome.result.per_slot.back().mean_cache_remaining /
            options_.simulator.base_params.content_size,
        0.01, 1.0);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace mfg::sim
