#include "core/plan_publication.h"

namespace mfg::core {

double MeanCachingRate(const numerics::TimeField2D& control) {
  double sum = 0.0;
  std::size_t cells = 0;
  for (std::size_t n = 0; n < control.size(); ++n) {
    for (double x : control[n]) sum += x;
    cells += control.cols();
  }
  return cells == 0 ? 0.0 : sum / static_cast<double>(cells);
}

double MeanEquilibriumPrice(const Equilibrium& equilibrium) {
  if (equilibrium.mean_field.empty()) return 0.0;
  double sum = 0.0;
  for (const MeanFieldQuantities& mf : equilibrium.mean_field) {
    sum += mf.price;
  }
  return sum / static_cast<double>(equilibrium.mean_field.size());
}

namespace {

// Placement scores over the catalog and, when `mean_rate` is non-null,
// each active content's mean caching rate: the one its equilibrium stored
// with its policy (Equilibrium::mean_caching_rate), or, for a policy
// written without one, the walk of MeanCachingRate.
void ScoreContents(const EpochPlanBuffer& buffer, std::vector<double>& score,
                   std::vector<double>* mean_rate) {
  const std::size_t k = buffer.popularity.size();
  score.assign(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    score[i] = kInactiveScoreWeight * buffer.popularity[i];
  }
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    const EpochContentResult& result = buffer.results[slot];
    const Equilibrium& eq = result.equilibrium;
    const double rate = eq.mean_caching_rate.has_value()
                            ? *eq.mean_caching_rate
                            : MeanCachingRate(eq.hjb.policy);
    score[result.content] =
        buffer.popularity[result.content] *
        (kInactiveScoreWeight + (1.0 - kInactiveScoreWeight) * rate);
    if (mean_rate != nullptr) (*mean_rate)[result.content] = rate;
  }
}

}  // namespace

void ComputePlacementScores(const EpochPlanBuffer& buffer,
                            std::vector<double>& score) {
  ScoreContents(buffer, score, nullptr);
}

void SnapshotPublishedPlan(const EpochPlanBuffer& buffer,
                           PublishedPlan& plan) {
  const std::size_t k = buffer.popularity.size();
  plan.mean_rate.assign(k, 0.0);
  ScoreContents(buffer, plan.score, &plan.mean_rate);
  plan.popularity.assign(buffer.popularity.begin(), buffer.popularity.end());
  plan.mean_price.assign(k, 0.0);
  plan.num_active = buffer.num_active;
  double price_sum = 0.0;
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    const EpochContentResult& result = buffer.results[slot];
    const double price = MeanEquilibriumPrice(result.equilibrium);
    plan.mean_price[result.content] = price;
    price_sum += price;
  }
  plan.mean_price_overall =
      buffer.num_active == 0
          ? 0.0
          : price_sum / static_cast<double>(buffer.num_active);
}

}  // namespace mfg::core
