// Bit-identity tests for the content-batched (SoA) tridiagonal solver
// against the scalar one: every lane of a batch solve must reproduce the
// scalar solve on that lane's system bit-for-bit (not just to tolerance).
//
// Lanes are deliberately heterogeneous (lane-dependent bands and right-hand
// sides) so a lane mix-up or cross-lane arithmetic cannot cancel out.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "numerics/batch_field.h"
#include "numerics/tridiagonal.h"

namespace mfg::numerics {
namespace {

// Bitwise double equality (stricter than operator==: distinguishes ±0 and
// would catch a NaN slipping through as "equal").
void ExpectBitEqual(double actual, double expected, std::size_t node,
                    std::size_t lane) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << "node " << node << " lane " << lane << ": " << actual
      << " != " << expected;
}

// Per-lane synthetic sample: smooth but lane-dependent so no two lanes
// share data.
double Sample(std::size_t node, std::size_t lane) {
  const double x = static_cast<double>(node);
  const double l = static_cast<double>(lane);
  return std::sin(0.31 * x + 0.7 * l) + 0.01 * (l + 1.0) * x * x;
}

std::vector<double> GatherLane(const BatchField& field, std::size_t lane) {
  std::vector<double> out(field.nodes());
  for (std::size_t i = 0; i < field.nodes(); ++i) {
    out[i] = field.at(i, lane);
  }
  return out;
}

class BatchKernelsTest : public ::testing::TestWithParam<std::size_t> {};

// Diagonally dominant lane systems with lane-dependent bands.
BatchTridiagonalSystem MakeBatchSystem(std::size_t nodes, std::size_t lanes) {
  BatchTridiagonalSystem system;
  system.lower.Assign(nodes, lanes);
  system.diag.Assign(nodes, lanes);
  system.upper.Assign(nodes, lanes);
  system.rhs.Assign(nodes, lanes);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const double li = static_cast<double>(l + 1);
      system.lower.at(i, l) = -0.4 * std::sin(0.5 * i + li);
      system.upper.at(i, l) = -0.3 * std::cos(0.4 * i - li);
      system.diag.at(i, l) = 2.0 + 0.1 * li + 0.05 * std::sin(1.1 * i);
      system.rhs.at(i, l) = Sample(i, l);
    }
  }
  return system;
}

TridiagonalSystem GatherLaneSystem(const BatchTridiagonalSystem& system,
                                   std::size_t lane) {
  TridiagonalSystem out;
  out.lower = GatherLane(system.lower, lane);
  out.diag = GatherLane(system.diag, lane);
  out.upper = GatherLane(system.upper, lane);
  out.rhs = GatherLane(system.rhs, lane);
  return out;
}

TEST_P(BatchKernelsTest, TridiagonalMatchesScalarPerLane) {
  const std::size_t lanes = GetParam();
  const std::size_t nodes = 41;
  const BatchTridiagonalSystem system = MakeBatchSystem(nodes, lanes);
  BatchTridiagonalWorkspace workspace;
  BatchField x;
  std::vector<std::ptrdiff_t> singular(lanes, 0);
  SolveTridiagonalBatchInto(system, workspace, x, singular);

  TridiagonalWorkspace scalar_ws;
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_EQ(singular[l], -1) << "lane " << l;
    const TridiagonalSystem lane_system = GatherLaneSystem(system, l);
    std::vector<double> expected;
    ASSERT_TRUE(
        SolveTridiagonalInto(lane_system, scalar_ws, expected).ok());
    for (std::size_t i = 0; i < nodes; ++i) {
      ExpectBitEqual(x.at(i, l), expected[i], i, l);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchKernelsTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "K" + std::to_string(info.param);
                         });

TEST(BatchTridiagonalTest, SingularLaneDoesNotPerturbHealthyLanes) {
  const std::size_t nodes = 23;
  const std::size_t lanes = 4;
  BatchTridiagonalSystem system = MakeBatchSystem(nodes, lanes);
  // Lane 2 hits a hard zero pivot at row 7; the scalar solver would fail
  // the whole solve there.
  system.diag.at(7, 2) = 0.0;
  system.lower.at(7, 2) = 0.0;

  BatchTridiagonalWorkspace workspace;
  BatchField x;
  std::vector<std::ptrdiff_t> singular(lanes, 0);
  SolveTridiagonalBatchInto(system, workspace, x, singular);

  EXPECT_EQ(singular[2], 7);
  TridiagonalWorkspace scalar_ws;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (l == 2) continue;  // This lane's x values are documented garbage.
    EXPECT_EQ(singular[l], -1) << "lane " << l;
    const TridiagonalSystem lane_system = GatherLaneSystem(system, l);
    std::vector<double> expected;
    ASSERT_TRUE(
        SolveTridiagonalInto(lane_system, scalar_ws, expected).ok());
    for (std::size_t i = 0; i < nodes; ++i) {
      ExpectBitEqual(x.at(i, l), expected[i], i, l);
    }
  }
  // The scalar solver confirms lane 2 really was singular.
  TridiagonalWorkspace failing_ws;
  std::vector<double> unused;
  EXPECT_FALSE(
      SolveTridiagonalInto(GatherLaneSystem(system, 2), failing_ws, unused)
          .ok());
}

TEST(BatchFieldTest, AssignReusesCapacity) {
  BatchField field;
  field.Assign(16, 8, 1.0);
  const double* data = field.data();
  field.Assign(12, 8, 2.0);  // Smaller: must reuse the same storage.
  EXPECT_EQ(field.data(), data);
  EXPECT_EQ(field.nodes(), 12u);
  EXPECT_EQ(field.at(11, 7), 2.0);
}

}  // namespace
}  // namespace mfg::numerics
