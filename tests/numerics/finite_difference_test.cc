#include "numerics/finite_difference.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mfg::numerics {
namespace {

TEST(StableTimeStepTest, Formulas) {
  // Advection-limited.
  EXPECT_NEAR(StableTimeStep(0.1, 2.0, 0.0, 1.0), 0.05, 1e-12);
  // Diffusion-limited.
  EXPECT_NEAR(StableTimeStep(0.1, 0.0, 1.0, 1.0), 0.005, 1e-12);
  // Safety factor applies.
  EXPECT_NEAR(StableTimeStep(0.1, 2.0, 0.0, 0.5), 0.025, 1e-12);
  // Degenerate: no constraint.
  EXPECT_TRUE(std::isinf(StableTimeStep(0.1, 0.0, 0.0)));
}

}  // namespace
}  // namespace mfg::numerics
