#include "numerics/field2d.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mfg::numerics {
namespace {

Grid2D MakeGrid(double lo0, double hi0, std::size_t n0, double lo1,
                double hi1, std::size_t n1) {
  auto axis0 = Grid1D::Create(lo0, hi0, n0).value();
  auto axis1 = Grid1D::Create(lo1, hi1, n1).value();
  return Grid2D::Create(axis0, axis1).value();
}

TEST(Trapezoid2DTest, ConstantField) {
  auto grid = MakeGrid(0.0, 2.0, 5, 0.0, 3.0, 7);
  std::vector<double> field(grid.size(), 4.0);
  EXPECT_NEAR(Trapezoid2D(grid, field).value(), 4.0 * 6.0, 1e-12);
}

TEST(Trapezoid2DTest, SeparableLinearField) {
  // f = x * y over [0,1]^2: integral = 1/4.
  auto grid = MakeGrid(0.0, 1.0, 51, 0.0, 1.0, 51);
  std::vector<double> field(grid.size());
  for (std::size_t i = 0; i < 51; ++i) {
    for (std::size_t j = 0; j < 51; ++j) {
      field[grid.Index(i, j)] = grid.axis0().x(i) * grid.axis1().x(j);
    }
  }
  EXPECT_NEAR(Trapezoid2D(grid, field).value(), 0.25, 1e-10);
}

TEST(Trapezoid2DTest, RejectsSizeMismatch) {
  auto grid = MakeGrid(0.0, 1.0, 3, 0.0, 1.0, 3);
  EXPECT_FALSE(Trapezoid2D(grid, {1.0, 2.0}).ok());
}

TEST(MarginalizeTest, ProductDensityMarginalsRecoverFactors) {
  auto grid = MakeGrid(0.0, 1.0, 41, 0.0, 2.0, 81);
  // g0(x) = 2x (density on [0,1]), g1(y) = y/2 (density on [0,2]).
  std::vector<double> g0(41), g1(81);
  for (std::size_t i = 0; i < 41; ++i) g0[i] = 2.0 * grid.axis0().x(i);
  for (std::size_t j = 0; j < 81; ++j) g1[j] = grid.axis1().x(j) / 2.0;
  auto field = OuterProduct(grid, g0, g1).value();
  // ∫ g0 dx = 1 so the axis-0 marginalization returns ≈ g1, and vice
  // versa.
  auto m1 = MarginalizeAxis0(grid, field).value();
  ASSERT_EQ(m1.size(), 81u);
  for (std::size_t j = 0; j < 81; ++j) {
    EXPECT_NEAR(m1[j], g1[j], 1e-3);
  }
  auto m0 = MarginalizeAxis1(grid, field).value();
  ASSERT_EQ(m0.size(), 41u);
  for (std::size_t i = 0; i < 41; ++i) {
    EXPECT_NEAR(m0[i], g0[i], 1e-3);
  }
}

TEST(MarginalizeTest, MassIsPreserved) {
  auto grid = MakeGrid(-1.0, 1.0, 31, 0.0, 5.0, 61);
  std::vector<double> field(grid.size());
  for (std::size_t i = 0; i < 31; ++i) {
    for (std::size_t j = 0; j < 61; ++j) {
      field[grid.Index(i, j)] =
          std::exp(-grid.axis0().x(i) * grid.axis0().x(i)) *
          (1.0 + grid.axis1().x(j));
    }
  }
  const double total = Trapezoid2D(grid, field).value();
  // Integrating the marginal over the remaining axis gives the total.
  auto marginal = MarginalizeAxis0(grid, field).value();
  double acc = 0.5 * (marginal.front() + marginal.back());
  for (std::size_t j = 1; j + 1 < marginal.size(); ++j) acc += marginal[j];
  EXPECT_NEAR(acc * grid.axis1().dx(), total, 1e-9);
}

TEST(ClipAndNormalizeTest, ClipsNegativesAndNormalizes) {
  auto grid = MakeGrid(0.0, 1.0, 3, 0.0, 1.0, 3);
  std::vector<double> field = {1.0, -0.5, 2.0, 0.5, 1.5, -1.0,
                               0.0, 1.0, 0.5};
  ASSERT_TRUE(ClipAndNormalize2D(grid, field).ok());
  for (double v : field) EXPECT_GE(v, 0.0);
  EXPECT_NEAR(Trapezoid2D(grid, field).value(), 1.0, 1e-12);
}

TEST(ClipAndNormalizeTest, FailsOnZeroMass) {
  auto grid = MakeGrid(0.0, 1.0, 3, 0.0, 1.0, 3);
  std::vector<double> field(9, -1.0);
  EXPECT_FALSE(ClipAndNormalize2D(grid, field).ok());
}

TEST(OuterProductTest, Validation) {
  auto grid = MakeGrid(0.0, 1.0, 3, 0.0, 1.0, 4);
  EXPECT_FALSE(OuterProduct(grid, {1.0, 2.0}, {1.0, 1.0, 1.0, 1.0}).ok());
  EXPECT_TRUE(
      OuterProduct(grid, {1.0, 2.0, 3.0}, {1.0, 1.0, 1.0, 1.0}).ok());
}

}  // namespace
}  // namespace mfg::numerics
