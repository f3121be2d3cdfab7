#include "numerics/grid.h"

#include <gtest/gtest.h>

namespace mfg::numerics {
namespace {

TEST(Grid1DTest, CreateValidates) {
  EXPECT_TRUE(Grid1D::Create(0.0, 1.0, 2).ok());
  EXPECT_FALSE(Grid1D::Create(0.0, 1.0, 1).ok());
  EXPECT_FALSE(Grid1D::Create(1.0, 1.0, 5).ok());
  EXPECT_FALSE(Grid1D::Create(2.0, 1.0, 5).ok());
}

TEST(Grid1DTest, CoordinatesAndSpacing) {
  auto grid = Grid1D::Create(0.0, 10.0, 11).value();
  EXPECT_DOUBLE_EQ(grid.dx(), 1.0);
  EXPECT_DOUBLE_EQ(grid.x(0), 0.0);
  EXPECT_DOUBLE_EQ(grid.x(5), 5.0);
  EXPECT_DOUBLE_EQ(grid.x(10), 10.0);
  const auto coords = grid.Coordinates();
  ASSERT_EQ(coords.size(), 11u);
  EXPECT_DOUBLE_EQ(coords[3], 3.0);
}

TEST(Grid1DTest, EndpointExactDespiteRounding) {
  auto grid = Grid1D::Create(0.0, 0.3, 4).value();
  EXPECT_DOUBLE_EQ(grid.x(3), 0.3);
}

TEST(Grid1DTest, NearestIndexClampsAndRounds) {
  auto grid = Grid1D::Create(0.0, 10.0, 11).value();
  EXPECT_EQ(grid.NearestIndex(-5.0), 0u);
  EXPECT_EQ(grid.NearestIndex(0.4), 0u);
  EXPECT_EQ(grid.NearestIndex(0.6), 1u);
  EXPECT_EQ(grid.NearestIndex(9.9), 10u);
  EXPECT_EQ(grid.NearestIndex(42.0), 10u);
}

TEST(Grid1DTest, CellIndexIsLeftNode) {
  auto grid = Grid1D::Create(0.0, 10.0, 11).value();
  EXPECT_EQ(grid.CellIndex(-1.0), 0u);
  EXPECT_EQ(grid.CellIndex(0.0), 0u);
  EXPECT_EQ(grid.CellIndex(3.7), 3u);
  // The right endpoint belongs to the last cell.
  EXPECT_EQ(grid.CellIndex(10.0), 9u);
  EXPECT_EQ(grid.CellIndex(11.0), 9u);
}

TEST(Grid1DTest, Contains) {
  auto grid = Grid1D::Create(-1.0, 1.0, 3).value();
  EXPECT_TRUE(grid.Contains(0.0));
  EXPECT_TRUE(grid.Contains(-1.0));
  EXPECT_TRUE(grid.Contains(1.0));
  EXPECT_FALSE(grid.Contains(1.1));
  EXPECT_FALSE(grid.Contains(-1.1));
}

TEST(Grid1DTest, Equality) {
  auto a = Grid1D::Create(0.0, 1.0, 5).value();
  auto b = Grid1D::Create(0.0, 1.0, 5).value();
  auto c = Grid1D::Create(0.0, 1.0, 6).value();
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Grid2DTest, IndexingIsRowMajor) {
  auto axis0 = Grid1D::Create(0.0, 1.0, 3).value();
  auto axis1 = Grid1D::Create(0.0, 1.0, 4).value();
  auto grid = Grid2D::Create(axis0, axis1).value();
  EXPECT_EQ(grid.size(), 12u);
  EXPECT_EQ(grid.Index(0, 0), 0u);
  EXPECT_EQ(grid.Index(0, 3), 3u);
  EXPECT_EQ(grid.Index(1, 0), 4u);
  EXPECT_EQ(grid.Index(2, 3), 11u);
}

}  // namespace
}  // namespace mfg::numerics
