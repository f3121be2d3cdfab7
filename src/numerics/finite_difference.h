#ifndef MFGCP_NUMERICS_FINITE_DIFFERENCE_H_
#define MFGCP_NUMERICS_FINITE_DIFFERENCE_H_

// The CFL bound behind the solvers' explicit sub-stepping. The stencils
// themselves live inside the batched HJB and FPK sweeps
// (core/hjb_batch.cc, core/fpk_batch.cc), fused into their substep passes.

namespace mfg::numerics {

// Largest stable explicit time step for advection speed `max_speed` and
// diffusion coefficient `diffusion` (sigma^2/2) on spacing dx:
//   dt <= safety * min(dx / max_speed, dx^2 / (2 * diffusion)).
// Returns +inf when both terms vanish.
double StableTimeStep(double dx, double max_speed, double diffusion,
                      double safety = 0.9);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_FINITE_DIFFERENCE_H_
