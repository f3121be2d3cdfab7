#ifndef MFGCP_NUMERICS_FINITE_DIFFERENCE_H_
#define MFGCP_NUMERICS_FINITE_DIFFERENCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/batch_field.h"
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

// ---------------------------------------------------------------------------
// Content-batched (structure-of-arrays) kernel variants.
//
// Each `*BatchInto` applies the matching scalar operator to every lane of a
// BatchField at once: lane l sees the lane-l samples of `f` and receives
// exactly the scalar result bit-for-bit — the lane loop is a per-lane
// transcription of the scalar expression tree (same operations, same order,
// no cross-lane arithmetic), so IEEE semantics match. The innermost loops
// are unit-stride across lanes and auto-vectorize; building with
// -DMFGCP_SIMD=ON swaps in an explicit std::experimental::simd path
// (paired with -ffp-contract=off so fused multiply-adds cannot break the
// bit-identity contract).
//
// Instead of the spacing itself the kernels take *precomputed reciprocals*,
// mirroring the scalar kernels' once-per-call hoist (division has far lower
// throughput than multiply, and these run once per element). For the
// bit-identity contract the caller must fill them with the identical
// expressions the scalar kernels use:
//   inv_dx[l]  = 1.0 / dx[l]
//   inv_2dx[l] = 1.0 / (2.0 * dx[l])
//   inv_dx2[l] = 1.0 / (dx[l] * dx[l])
//
// Requirements mirror the scalar kernels: all fields share nodes()/lanes(),
// every reciprocal span has size >= lanes(), out must not alias f,
// nodes() >= 2.
// ---------------------------------------------------------------------------

void GradientBatchInto(std::span<const double> inv_dx,
                       std::span<const double> inv_2dx, const BatchField& f,
                       BatchField& out);

void UpwindGradientBatchInto(std::span<const double> inv_dx,
                             const BatchField& f, const BatchField& velocity,
                             BatchField& out);

void SecondDerivativeBatchInto(std::span<const double> inv_dx2,
                               const BatchField& f, BatchField& out);

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
