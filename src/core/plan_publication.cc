#include "core/plan_publication.h"

#include <algorithm>

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

// Active slots whose mean caching rates are summed side by side. Each slot
// keeps its own serial chain in (n, i) order — bit-equal to
// MeanCachingRate — but independent chains overlap in the FP adder
// instead of waiting on one another.
constexpr std::size_t kRateChains = 8;

// Mean caching rates of active slots [first, first + lanes) into `rate`,
// lanes <= kRateChains. A short group repeats its first slot in the spare
// chains (discarded): they ride in the same adder latency for free.
void MeanCachingRates(const EpochPlanBuffer& buffer, std::size_t first,
                      std::size_t lanes, double* rate) {
  const double* data[kRateChains] = {};
  std::size_t cells[kRateChains] = {};
  double sum[kRateChains] = {};
  std::size_t shared = static_cast<std::size_t>(-1);
  for (std::size_t l = 0; l < lanes; ++l) {
    const numerics::TimeField2D& control =
        buffer.results[first + l].equilibrium.hjb.policy;
    data[l] = control.data();
    cells[l] = control.rows() * control.cols();
    shared = std::min(shared, cells[l]);
  }
  for (std::size_t l = lanes; l < kRateChains; ++l) data[l] = data[0];
  for (std::size_t j = 0; j < shared; ++j) {
    for (std::size_t l = 0; l < kRateChains; ++l) sum[l] += data[l][j];
  }
  // Slots longer than the group's shortest finish their chains alone.
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t j = shared; j < cells[l]; ++j) sum[l] += data[l][j];
    rate[l] = cells[l] == 0 ? 0.0 : sum[l] / static_cast<double>(cells[l]);
  }
}

// Placement scores over the catalog and, when `mean_rate` is non-null,
// each active content's mean caching rate: one walk over every policy.
void ScoreContents(const EpochPlanBuffer& buffer, std::vector<double>& score,
                   std::vector<double>* mean_rate) {
  const std::size_t k = buffer.popularity.size();
  score.assign(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    score[i] = kInactiveScoreWeight * buffer.popularity[i];
  }
  double rate[kRateChains] = {};
  for (std::size_t first = 0; first < buffer.num_active;
       first += kRateChains) {
    const std::size_t lanes =
        std::min(kRateChains, buffer.num_active - first);
    MeanCachingRates(buffer, first, lanes, rate);
    for (std::size_t l = 0; l < lanes; ++l) {
      const content::ContentId content = buffer.results[first + l].content;
      score[content] =
          buffer.popularity[content] *
          (kInactiveScoreWeight + (1.0 - kInactiveScoreWeight) * rate[l]);
      if (mean_rate != nullptr) (*mean_rate)[content] = rate[l];
    }
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
