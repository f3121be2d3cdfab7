#include "core/mean_field_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "econ/pricing.h"
#include "numerics/quadrature.h"
#include "numerics/time_field.h"

namespace mfg::core {
namespace {

MfgParams MakeParams() {
  MfgParams params;
  params.grid.num_q_nodes = 201;
  return params;
}

numerics::Density1D MakeDensity(const MfgParams& params, double mean,
                                double stddev) {
  auto grid = params.MakeQGrid().value();
  return numerics::Density1D::TruncatedGaussian(grid, mean, stddev).value();
}

TEST(MeanFieldEstimatorTest, CreateValidatesParams) {
  MfgParams bad = MakeParams();
  bad.horizon = -1.0;
  EXPECT_FALSE(MeanFieldEstimator::Create(bad).ok());
  EXPECT_TRUE(MeanFieldEstimator::Create(MakeParams()).ok());
}

TEST(MeanFieldEstimatorTest, RejectsPolicySizeMismatch) {
  MfgParams params = MakeParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  auto density = MakeDensity(params, 50.0, 10.0);
  EXPECT_FALSE(estimator.Estimate(density, {0.5, 0.5}).ok());
}

TEST(MeanFieldEstimatorTest, MeanCachingRateOfConstantPolicy) {
  MfgParams params = MakeParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  auto density = MakeDensity(params, 50.0, 10.0);
  std::vector<double> policy(params.grid.num_q_nodes, 0.4);
  auto mf = estimator.Estimate(density, policy).value();
  EXPECT_NEAR(mf.mean_caching_rate, 0.4, 1e-6);
  // Eq. 17 with stock supply: p = p_hat - eta1 * (Q - q_bar).
  MfgParams defaults;
  EXPECT_NEAR(mf.price,
              defaults.pricing.max_price -
                  defaults.pricing.eta1 * (100.0 - density.Mean()),
              1e-4);
}

TEST(MeanFieldEstimatorTest, MeanPeerRemainingIsDensityMean) {
  MfgParams params = MakeParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  auto density = MakeDensity(params, 62.0, 8.0);
  std::vector<double> policy(params.grid.num_q_nodes, 0.0);
  auto mf = estimator.Estimate(density, policy).value();
  EXPECT_NEAR(mf.mean_peer_remaining, density.Mean(), 1e-9);
}

TEST(MeanFieldEstimatorTest, SharerFractionMatchesThresholdMass) {
  MfgParams params = MakeParams();
  params.case_alpha = 0.2;  // Threshold at 20 MB.
  auto estimator = MeanFieldEstimator::Create(params).value();
  // Density centred at the threshold: about half the mass qualifies.
  auto density = MakeDensity(params, 20.0, 5.0);
  std::vector<double> policy(params.grid.num_q_nodes, 0.0);
  auto mf = estimator.Estimate(density, policy).value();
  EXPECT_NEAR(mf.sharer_fraction, 0.5, 0.05);
  EXPECT_NEAR(mf.case3_fraction,
              (1.0 - mf.sharer_fraction) * (1.0 - mf.sharer_fraction),
              1e-9);
}

TEST(MeanFieldEstimatorTest, SharingBenefitCollapsesToPDeltaS) {
  // With s = mass(q > alpha Q), the paper's ratio collapses to
  // Phi = p_bar * delta_q * s (see header comment).
  MfgParams params = MakeParams();
  params.utility.sharing_price = 2.0;
  auto estimator = MeanFieldEstimator::Create(params).value();
  auto density = MakeDensity(params, 30.0, 10.0);
  std::vector<double> policy(params.grid.num_q_nodes, 0.0);
  auto mf = estimator.Estimate(density, policy).value();
  const double s = 1.0 - mf.sharer_fraction;
  EXPECT_NEAR(mf.sharing_benefit, 2.0 * mf.delta_q * s, 1e-9);
}

TEST(MeanFieldEstimatorTest, NoSharersNoBenefit) {
  MfgParams params = MakeParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  // Everyone far above the threshold: nobody can share.
  auto density = MakeDensity(params, 90.0, 3.0);
  std::vector<double> policy(params.grid.num_q_nodes, 0.0);
  auto mf = estimator.Estimate(density, policy).value();
  EXPECT_LT(mf.sharer_fraction, 1e-6);
  EXPECT_DOUBLE_EQ(mf.sharing_benefit, 0.0);
}

TEST(MeanFieldEstimatorTest, SharingDisabledZeroesBenefit) {
  MfgParams params = MakeParams();
  params.sharing_enabled = false;
  auto estimator = MeanFieldEstimator::Create(params).value();
  auto density = MakeDensity(params, 30.0, 10.0);
  std::vector<double> policy(params.grid.num_q_nodes, 0.5);
  auto mf = estimator.Estimate(density, policy).value();
  EXPECT_DOUBLE_EQ(mf.sharing_benefit, 0.0);
}

TEST(MeanFieldEstimatorTest, DeltaQIsAbsoluteMomentGap) {
  MfgParams params = MakeParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  auto density = MakeDensity(params, 40.0, 15.0);
  std::vector<double> policy(params.grid.num_q_nodes, 0.0);
  auto mf = estimator.Estimate(density, policy).value();
  const double threshold = params.case_alpha * params.content_size;
  const double below = density.MeanOnInterval(0.0, threshold);
  const double above =
      density.MeanOnInterval(threshold, params.content_size);
  EXPECT_NEAR(mf.delta_q, std::abs(below - above), 1e-9);
}

TEST(MeanFieldEstimatorTest, MoreCachedStockLowerPrice) {
  MfgParams params = MakeParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  std::vector<double> policy(params.grid.num_q_nodes, 0.5);
  // A population that has cached more (lower q_bar) floods the market.
  auto sparse = MakeDensity(params, 80.0, 8.0);   // Little cached.
  auto saturated = MakeDensity(params, 20.0, 8.0);  // Mostly cached.
  EXPECT_GT(estimator.Estimate(sparse, policy).value().price,
            estimator.Estimate(saturated, policy).value().price);
}

// The estimator as a chain of quadrature-helper calls: the definition the
// tabulated single-pass estimator must reproduce bit for bit.
MeanFieldQuantities ReferenceEstimate(const MfgParams& params,
                                      const numerics::Density1D& density,
                                      std::span<const double> policy) {
  const numerics::Grid1D& grid = density.grid();
  const std::vector<double>& values = density.values();
  MeanFieldQuantities out;
  out.mean_caching_rate = std::clamp(
      numerics::TrapezoidProduct(grid, std::span<const double>(values),
                                 policy)
          .value(),
      0.0, 1.0);
  std::vector<double> weighted(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    weighted[i] = grid.x(i) * values[i];
  }
  out.mean_peer_remaining = numerics::Trapezoid(grid, weighted).value();
  out.price = econ::PricingModel::Create(params.pricing)
                  .value()
                  .MeanFieldPrice(out.mean_peer_remaining,
                                  params.content_size);
  const double threshold = params.case_alpha * params.content_size;
  const double sharer_moment =
      numerics::TrapezoidOnInterval(grid, weighted, grid.lo(), threshold)
          .value();
  const double needer_moment =
      numerics::TrapezoidOnInterval(grid, weighted, threshold, grid.hi())
          .value();
  out.delta_q = std::fabs(sharer_moment - needer_moment);
  const double sharer_mass =
      numerics::TrapezoidOnInterval(grid, values, grid.lo(), threshold)
          .value();
  out.sharer_fraction = std::clamp(sharer_mass, 0.0, 1.0);
  const double lacking = 1.0 - out.sharer_fraction;
  out.case3_fraction = lacking * lacking;
  if (out.sharer_fraction > 1e-9) {
    const double ratio = (1.0 - out.case3_fraction) / out.sharer_fraction;
    out.sharing_benefit = params.utility.sharing_price * out.delta_q *
                          std::max(ratio - 1.0, 0.0);
  }
  if (!params.sharing_enabled) out.sharing_benefit = 0.0;
  return out;
}

void ExpectBitwiseEqual(double actual, double expected, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << field << ": " << actual << " vs " << expected;
}

void ExpectBitwiseEqual(const MeanFieldQuantities& actual,
                        const MeanFieldQuantities& expected) {
  ExpectBitwiseEqual(actual.mean_caching_rate, expected.mean_caching_rate,
                     "mean_caching_rate");
  ExpectBitwiseEqual(actual.price, expected.price, "price");
  ExpectBitwiseEqual(actual.mean_peer_remaining, expected.mean_peer_remaining,
                     "mean_peer_remaining");
  ExpectBitwiseEqual(actual.delta_q, expected.delta_q, "delta_q");
  ExpectBitwiseEqual(actual.sharer_fraction, expected.sharer_fraction,
                     "sharer_fraction");
  ExpectBitwiseEqual(actual.case3_fraction, expected.case3_fraction,
                     "case3_fraction");
  ExpectBitwiseEqual(actual.sharing_benefit, expected.sharing_benefit,
                     "sharing_benefit");
}

// Seeded random densities (some exact zeros, unnormalized) and policies,
// through the slice entry point.
void CheckBitIdentity(const MfgParams& params, std::uint64_t seed) {
  const auto estimator = MeanFieldEstimator::Create(params).value();
  const numerics::Grid1D grid = params.MakeQGrid().value();
  const std::size_t nq = grid.size();
  constexpr std::size_t kSlices = 12;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<numerics::Density1D> densities;
  numerics::TimeField2D policy(kSlices, nq, 0.0);
  for (std::size_t n = 0; n < kSlices; ++n) {
    std::vector<double> values(nq);
    for (double& v : values) {
      const double u = unit(rng);
      v = u < 0.1 ? 0.0 : 0.05 * u;
    }
    densities.push_back(
        numerics::Density1D::FromSamplesUnchecked(grid, values).value());
    for (std::size_t i = 0; i < nq; ++i) policy[n][i] = unit(rng);
  }

  MeanFieldEstimator::Workspace workspace;
  for (std::size_t n = 0; n < kSlices; ++n) {
    SCOPED_TRACE(::testing::Message() << "slice " << n);
    MeanFieldQuantities slice;
    ASSERT_TRUE(
        estimator.EstimateInto(densities[n], policy[n], workspace, slice)
            .ok());
    ExpectBitwiseEqual(slice,
                       ReferenceEstimate(params, densities[n], policy[n]));
  }
}

TEST(MeanFieldEstimatorTest, MatchesQuadratureHelpersBitwise) {
  // case_alpha is validated to the open interval (0, 1); its extremes are
  // the nearest admissible values, which put the threshold inside the
  // first cell (a one-cell sharer interval) and inside the last cell (a
  // one-cell needer interval). Of the interior thresholds, on the 101-node
  // [0, 100] grid αQ = 20 is node 20 and αQ = 23.7 lies inside cell 23.
  const double kAlphas[] = {std::nextafter(0.0, 1.0), 0.2, 0.237,
                            std::nextafter(1.0, 0.0)};
  const double kSizes[] = {100.0, 60.0, 137.5};
  const numerics::Grid1D grid =
      numerics::Grid1D::Create(0.0, 100.0, 101).value();
  ASSERT_EQ(0.2 * 100.0, grid.x(20));
  ASSERT_GT(0.237 * 100.0, grid.x(23));
  ASSERT_LT(0.237 * 100.0, grid.x(24));
  std::uint64_t seed = 1;
  for (const double size : kSizes) {
    for (const double alpha : kAlphas) {
      for (const bool sharing : {true, false}) {
        MfgParams params = MakeParams();
        params.grid.num_q_nodes = 101;
        params.content_size = size;
        params.case_alpha = alpha;
        params.sharing_enabled = sharing;
        SCOPED_TRACE(::testing::Message()
                     << "content_size " << size << " case_alpha " << alpha
                     << " sharing " << sharing);
        CheckBitIdentity(params, seed++);
      }
    }
  }
}

// Lane-parallel trajectory estimates over a [time][node][lane] block must
// equal each lane's quadrature-helper reference bit for bit, at every
// width.
// Lanes take the batched learner's heterogeneous content sizes (60–140 MB:
// dx, node coordinates and αQ all differ per lane) and mix the interval
// shapes: αQ on a grid node, a sharer interval inside the first cell, and
// thresholds inside interior cells, with sharing on and off.
TEST(MeanFieldEstimatorTest, LaneParallelTrajectoryMatchesPerLaneBitwise) {
  static constexpr double kSizes[] = {100.0, 60.0, 140.0, 90.0,
                                      120.0, 75.0, 105.0, 130.0};
  // Lane 0: αQ = 20 is node 8 of the 41-node [0, 100] grid. Lane 1:
  // αQ = 0.6 < dx = 1.5, a one-cell sharer interval.
  static constexpr double kAlphas[] = {0.2,  0.01, 0.237, 0.5,
                                       0.33, 0.2,  0.71,  0.9};
  constexpr std::size_t kNodes = 41;
  constexpr std::size_t kSlices = 12;
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "K" << lanes);
    std::vector<MfgParams> params(lanes);
    MeanFieldBatchEstimator batch;
    batch.Reset(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      params[l] = DefaultPaperParams();
      params[l].grid.num_q_nodes = kNodes;
      params[l].content_size = kSizes[l];
      params[l].case_alpha = kAlphas[l];
      params[l].sharing_enabled = l != 3;
      ASSERT_TRUE(batch.BindLane(l, params[l]).ok()) << "lane " << l;
    }
    {
      const numerics::Grid1D grid = params[0].MakeQGrid().value();
      ASSERT_EQ(params[0].case_alpha * params[0].content_size, grid.x(8));
    }
    if (lanes >= 2) {
      const numerics::Grid1D grid = params[1].MakeQGrid().value();
      ASSERT_LT(params[1].case_alpha * params[1].content_size, grid.x(1));
    }

    // Seeded densities (some exact zeros, unnormalized) and policies, laid
    // out per lane for the reference and interleaved for the batch.
    std::mt19937_64 rng(lanes);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> density_field(kSlices * kNodes * lanes);
    std::vector<double> policy_field(kSlices * kNodes * lanes);
    for (double& v : density_field) {
      const double u = unit(rng);
      v = u < 0.1 ? 0.0 : 0.05 * u;
    }
    for (double& x : policy_field) x = unit(rng);

    const MeanFieldQuantities kUntouched{-1.0, -1.0, -1.0, -1.0,
                                         -1.0, -1.0, -1.0};
    std::vector<MeanFieldQuantities> out(kSlices * lanes, kUntouched);
    // The last lane of a wide block is left out: its entries must stay.
    std::vector<std::uint8_t> counted(lanes, 1);
    if (lanes >= 4) counted[lanes - 1] = 0;
    batch.EstimateTrajectoryInto(kSlices, density_field.data(),
                                 policy_field.data(), counted, out);

    for (std::size_t l = 0; l < lanes; ++l) {
      SCOPED_TRACE(::testing::Message() << "lane " << l);
      const numerics::Grid1D grid = params[l].MakeQGrid().value();
      for (std::size_t n = 0; n < kSlices; ++n) {
        SCOPED_TRACE(::testing::Message() << "slice " << n);
        std::vector<double> values(kNodes);
        std::vector<double> policy(kNodes);
        for (std::size_t i = 0; i < kNodes; ++i) {
          values[i] = density_field[(n * kNodes + i) * lanes + l];
          policy[i] = policy_field[(n * kNodes + i) * lanes + l];
        }
        const numerics::Density1D density =
            numerics::Density1D::FromSamplesUnchecked(grid, values).value();
        ExpectBitwiseEqual(out[n * lanes + l],
                           counted[l] != 0
                               ? ReferenceEstimate(params[l], density, policy)
                               : kUntouched);
      }
    }
  }
}

TEST(MeanFieldEstimatorTest, RejectsDensityOffTheParamsGrid) {
  MfgParams params = MakeParams();
  auto estimator = MeanFieldEstimator::Create(params).value();
  // Same node count, different span: the tabulated coordinates would be
  // wrong for it, so it must be refused rather than integrated.
  const numerics::Grid1D other =
      numerics::Grid1D::Create(0.0, 2.0 * params.content_size,
                               params.grid.num_q_nodes)
          .value();
  const auto density =
      numerics::Density1D::TruncatedGaussian(other, 50.0, 10.0).value();
  const std::vector<double> policy(params.grid.num_q_nodes, 0.5);
  MeanFieldEstimator::Workspace workspace;
  MeanFieldQuantities out;
  const common::Status slice =
      estimator.EstimateInto(density, policy, workspace, out);
  EXPECT_EQ(slice.code(), common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mfg::core
