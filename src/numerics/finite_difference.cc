#include "numerics/finite_difference.h"

#include <algorithm>
#include <cmath>
#include <limits>


namespace mfg::numerics {
namespace {

common::Status ValidateField(const Grid1D& grid,
                             const std::vector<double>& f) {
  if (f.size() != grid.size()) {
    return common::Status::InvalidArgument(
        "field size " + std::to_string(f.size()) + " != grid size " +
        std::to_string(grid.size()));
  }
  return common::Status::Ok();
}

}  // namespace

// The stencil kernels divide by dx once per call, not once per element:
// double division has an order of magnitude less throughput than multiply on
// every mainstream core, and the solvers' substep loops are division-bound
// without this. The batched kernels take the same reciprocals per lane
// (computed with the identical expressions at bind time), which keeps the
// batch-vs-scalar bit-identity contract intact.

void GradientInto(double dx, std::span<const double> f,
                  std::span<double> out) {
  const std::size_t n = f.size();
  const double inv_dx = 1.0 / dx;
  const double inv_2dx = 1.0 / (2.0 * dx);
  out[0] = (f[1] - f[0]) * inv_dx;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    out[i] = (f[i + 1] - f[i - 1]) * inv_2dx;
  }
  out[n - 1] = (f[n - 1] - f[n - 2]) * inv_dx;
}

void UpwindGradientInto(double dx, std::span<const double> f,
                        std::span<const double> velocity,
                        std::span<double> out) {
  const std::size_t n = f.size();
  const double inv_dx = 1.0 / dx;
  for (std::size_t i = 0; i < n; ++i) {
    if (velocity[i] > 0.0) {
      // Information comes from the left; backward difference.
      out[i] = (i == 0) ? (f[1] - f[0]) * inv_dx : (f[i] - f[i - 1]) * inv_dx;
    } else {
      // Forward difference.
      out[i] = (i + 1 == n) ? (f[n - 1] - f[n - 2]) * inv_dx
                            : (f[i + 1] - f[i]) * inv_dx;
    }
  }
}

void SecondDerivativeInto(double dx, std::span<const double> f,
                          std::span<double> out) {
  const std::size_t n = f.size();
  const double inv_dx2 = 1.0 / (dx * dx);
  out[0] = 0.0;
  out[n - 1] = 0.0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    out[i] = (f[i + 1] - 2.0 * f[i] + f[i - 1]) * inv_dx2;
  }
  // Zero-curvature boundary: copy the adjacent interior value, which is the
  // second-order one-sided estimate under linear extrapolation.
  if (n >= 3) {
    out[0] = out[1];
    out[n - 1] = out[n - 2];
  }
}

common::StatusOr<std::vector<double>> Gradient(const Grid1D& grid,
                                               const std::vector<double>& f) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, f));
  std::vector<double> g(grid.size());
  GradientInto(grid.dx(), f, g);
  return g;
}

common::StatusOr<std::vector<double>> UpwindGradient(
    const Grid1D& grid, const std::vector<double>& f,
    const std::vector<double>& velocity) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, f));
  MFG_RETURN_IF_ERROR(ValidateField(grid, velocity));
  std::vector<double> g(grid.size());
  UpwindGradientInto(grid.dx(), f, velocity, g);
  return g;
}

common::StatusOr<std::vector<double>> SecondDerivative(
    const Grid1D& grid, const std::vector<double>& f) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, f));
  std::vector<double> g(grid.size(), 0.0);
  SecondDerivativeInto(grid.dx(), f, g);
  return g;
}

common::StatusOr<std::vector<double>> ConservativeAdvectionDivergence(
    const Grid1D& grid, const std::vector<double>& f,
    const std::vector<double>& velocity) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, f));
  MFG_RETURN_IF_ERROR(ValidateField(grid, velocity));
  const std::size_t n = grid.size();
  const double dx = grid.dx();

  // Face flux between node i and i+1 with donor-cell upwinding. Boundary
  // faces carry zero flux (reflecting domain), which makes the scheme
  // exactly mass-conservative: sum_i out[i] * dx == 0.
  std::vector<double> face_flux(n + 1, 0.0);
  for (std::size_t face = 1; face < n; ++face) {
    const double v_face = 0.5 * (velocity[face - 1] + velocity[face]);
    const double donor = v_face > 0.0 ? f[face - 1] : f[face];
    face_flux[face] = v_face * donor;
  }

  std::vector<double> div(n);
  for (std::size_t i = 0; i < n; ++i) {
    div[i] = (face_flux[i + 1] - face_flux[i]) / dx;
  }
  return div;
}

double StableTimeStep(double dx, double max_speed, double diffusion,
                      double safety) {
  double dt = std::numeric_limits<double>::infinity();
  if (max_speed > 0.0) dt = std::min(dt, dx / max_speed);
  if (diffusion > 0.0) dt = std::min(dt, dx * dx / (2.0 * diffusion));
  return safety * dt;
}

}  // namespace mfg::numerics
