#include "numerics/finite_difference.h"

#include <algorithm>
#include <limits>

namespace mfg::numerics {

double StableTimeStep(double dx, double max_speed, double diffusion,
                      double safety) {
  double dt = std::numeric_limits<double>::infinity();
  if (max_speed > 0.0) dt = std::min(dt, dx / max_speed);
  if (diffusion > 0.0) dt = std::min(dt, dx * dx / (2.0 * diffusion));
  return safety * dt;
}

}  // namespace mfg::numerics
