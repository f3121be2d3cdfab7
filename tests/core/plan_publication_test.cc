// Plan publication scores each active slot from its mean caching rate:
// the rate its equilibrium stored, or, for a policy written without one
// (every slot here), a walk of the policy. Its scores and published mean
// rates must stay bitwise equal to the serial MeanCachingRate for every
// active count — empty, one slot, several, many — and for slots of
// different grid shapes.

#include "core/plan_publication.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

namespace mfg::core {
namespace {

constexpr std::size_t kContents = 80;

// A buffer with `num_active` slots over a shuffled set of content ids.
// Policies hold arbitrary values in [0, 1]; every third slot uses a
// shorter time grid so slots differ in length.
EpochPlanBuffer MakeBuffer(std::size_t num_active) {
  std::mt19937_64 rng(7 + num_active);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  EpochPlanBuffer buffer;
  buffer.popularity.resize(kContents);
  for (double& p : buffer.popularity) p = unit(rng);
  std::vector<content::ContentId> ids(kContents);
  for (std::size_t k = 0; k < kContents; ++k) {
    ids[k] = static_cast<content::ContentId>(k);
  }
  std::shuffle(ids.begin(), ids.end(), rng);

  buffer.results.resize(num_active);
  buffer.num_active = num_active;
  for (std::size_t slot = 0; slot < num_active; ++slot) {
    EpochContentResult& result = buffer.results[slot];
    result.content = ids[slot];
    const std::size_t rows = slot % 3 == 2 ? 26 : 51;
    result.equilibrium.hjb.policy.Assign(rows, 41);
    for (double& x : result.equilibrium.hjb.policy.elements()) x = unit(rng);
    result.equilibrium.mean_field.resize(rows);
    for (MeanFieldQuantities& mf : result.equilibrium.mean_field) {
      mf.price = unit(rng);
    }
  }
  return buffer;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class PlanPublicationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanPublicationTest, ScoresAndRatesMatchSerialMeanBitwise) {
  const EpochPlanBuffer buffer = MakeBuffer(GetParam());
  std::vector<double> expected_score(kContents);
  std::vector<double> expected_rate(kContents, 0.0);
  for (std::size_t k = 0; k < kContents; ++k) {
    expected_score[k] = kInactiveScoreWeight * buffer.popularity[k];
  }
  for (std::size_t slot = 0; slot < buffer.num_active; ++slot) {
    const EpochContentResult& result = buffer.results[slot];
    const double rate = MeanCachingRate(result.equilibrium.hjb.policy);
    expected_rate[result.content] = rate;
    expected_score[result.content] =
        buffer.popularity[result.content] *
        (kInactiveScoreWeight + (1.0 - kInactiveScoreWeight) * rate);
  }

  std::vector<double> score;
  ComputePlacementScores(buffer, score);
  PublishedPlan plan;
  SnapshotPublishedPlan(buffer, plan);
  ASSERT_EQ(score.size(), kContents);
  ASSERT_EQ(plan.score.size(), kContents);
  ASSERT_EQ(plan.mean_rate.size(), kContents);
  for (std::size_t k = 0; k < kContents; ++k) {
    EXPECT_EQ(Bits(score[k]), Bits(expected_score[k])) << "content " << k;
    EXPECT_EQ(Bits(plan.score[k]), Bits(expected_score[k])) << "content " << k;
    EXPECT_EQ(Bits(plan.mean_rate[k]), Bits(expected_rate[k]))
        << "content " << k;
  }
  EXPECT_EQ(plan.num_active, buffer.num_active);
}

INSTANTIATE_TEST_SUITE_P(ActiveCounts, PlanPublicationTest,
                         ::testing::Values(0, 1, 3, 8, 9, 64));

}  // namespace
}  // namespace mfg::core
