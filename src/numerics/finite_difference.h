#ifndef MFGCP_NUMERICS_FINITE_DIFFERENCE_H_
#define MFGCP_NUMERICS_FINITE_DIFFERENCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/grid.h"

// Finite-difference operators on uniform 1-D grids. These back both PDE
// solvers: upwind first derivatives for advection (stability of HJB/FPK
// transport terms), central second derivatives for the Brownian diffusion
// terms, and a CFL helper for choosing explicit time steps.
//
// Each operator comes in two flavors:
//   * a validated StatusOr API returning a fresh vector (convenient for
//     tests and cold paths), and
//   * a raw `*Into` kernel writing into a caller-provided buffer with no
//     validation and no allocation — the building block of the solvers'
//     steady-state-allocation-free inner loops. `*Into` requires all spans
//     to have the same nonzero length and `out` must not alias `f`.

namespace mfg::numerics {

// out[0] and out[n-1] are one-sided, the interior is central (second-order
// interior, first-order boundary).
void GradientInto(double dx, std::span<const double> f, std::span<double> out);

// Upwind first derivative: at node i uses the backward difference when
// velocity[i] > 0 and the forward difference otherwise, matching the
// information flow of the advection term  velocity * df/dx.
void UpwindGradientInto(double dx, std::span<const double> f,
                        std::span<const double> velocity,
                        std::span<double> out);

// Central second derivative with zero-curvature (linear extrapolation)
// boundary treatment.
void SecondDerivativeInto(double dx, std::span<const double> f,
                          std::span<double> out);

// First derivative by central differences in the interior, one-sided at the
// boundaries.
common::StatusOr<std::vector<double>> Gradient(const Grid1D& grid,
                                               const std::vector<double>& f);

common::StatusOr<std::vector<double>> UpwindGradient(
    const Grid1D& grid, const std::vector<double>& f,
    const std::vector<double>& velocity);

common::StatusOr<std::vector<double>> SecondDerivative(
    const Grid1D& grid, const std::vector<double>& f);

// Conservative upwind divergence of the flux (velocity * f):
//   out[i] = d/dx (velocity * f) |_i
// computed from face fluxes so that the total mass change equals the
// boundary flux (exactly zero with the no-flux closure used here). This is
// what the FPK solver needs to conserve probability mass.
common::StatusOr<std::vector<double>> ConservativeAdvectionDivergence(
    const Grid1D& grid, const std::vector<double>& f,
    const std::vector<double>& velocity);

// Largest stable explicit time step for advection speed `max_speed` and
// diffusion coefficient `diffusion` (sigma^2/2) on spacing dx:
//   dt <= safety * min(dx / max_speed, dx^2 / (2 * diffusion)).
// Returns +inf when both terms vanish.
double StableTimeStep(double dx, double max_speed, double diffusion,
                      double safety = 0.9);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_FINITE_DIFFERENCE_H_
