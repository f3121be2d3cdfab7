#include "numerics/finite_difference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numerics/simd_support.h"

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

namespace {

// Lane loops for the batch kernels. Each helper applies one scalar stencil
// expression across the K contiguous lanes of a node row; the explicit
// std::experimental::simd bodies compute the identical expression per lane
// (element-wise IEEE ops, no reassociation), so both paths reproduce the
// scalar kernels bit-for-bit.

// out[l] = (a[l] - b[l]) * inv[l]
inline void LaneDiffMul(const double* a, const double* b, const double* inv,
                        double* __restrict out, std::size_t m) {
  std::size_t l = 0;
#if MFGCP_SIMD_ENABLED
  for (; l + kSimdWidth <= m; l += kSimdWidth) {
    SimdDouble va(a + l, stdx::element_aligned);
    SimdDouble vb(b + l, stdx::element_aligned);
    SimdDouble vi(inv + l, stdx::element_aligned);
    const SimdDouble r = (va - vb) * vi;
    r.copy_to(out + l, stdx::element_aligned);
  }
#endif
  for (; l < m; ++l) out[l] = (a[l] - b[l]) * inv[l];
}

// Interior upwind row: out[l] = (v[l] > 0 ? fi[l] - fm[l] : fp[l] - fi[l])
// * inv[l]. Selecting the difference before the one shared multiply is
// exactly the scalar kernel's taken branch (same inv_dx factor either way).
inline void LaneUpwind(const double* fi, const double* fm, const double* fp,
                       const double* vi, const double* inv,
                       double* __restrict out, std::size_t m) {
  std::size_t l = 0;
#if MFGCP_SIMD_ENABLED
  for (; l + kSimdWidth <= m; l += kSimdWidth) {
    SimdDouble vfi(fi + l, stdx::element_aligned);
    SimdDouble vfm(fm + l, stdx::element_aligned);
    SimdDouble vfp(fp + l, stdx::element_aligned);
    SimdDouble vinv(inv + l, stdx::element_aligned);
    SimdDouble vv(vi + l, stdx::element_aligned);
    SimdDouble num = vfp - vfi;
    stdx::where(vv > 0.0, num) = vfi - vfm;
    const SimdDouble r = num * vinv;
    r.copy_to(out + l, stdx::element_aligned);
  }
#endif
  for (; l < m; ++l) {
    const double num = vi[l] > 0.0 ? fi[l] - fm[l] : fp[l] - fi[l];
    out[l] = num * inv[l];
  }
}

// Interior central second difference row:
// out[l] = (fp[l] - 2 fi[l] + fm[l]) * inv[l].
inline void LaneSecondDiff(const double* fi, const double* fm,
                           const double* fp, const double* inv,
                           double* __restrict out, std::size_t m) {
  std::size_t l = 0;
#if MFGCP_SIMD_ENABLED
  for (; l + kSimdWidth <= m; l += kSimdWidth) {
    SimdDouble vfi(fi + l, stdx::element_aligned);
    SimdDouble vfm(fm + l, stdx::element_aligned);
    SimdDouble vfp(fp + l, stdx::element_aligned);
    SimdDouble vinv(inv + l, stdx::element_aligned);
    const SimdDouble r = (vfp - 2.0 * vfi + vfm) * vinv;
    r.copy_to(out + l, stdx::element_aligned);
  }
#endif
  for (; l < m; ++l) {
    out[l] = (fp[l] - 2.0 * fi[l] + fm[l]) * inv[l];
  }
}

}  // namespace

MFGCP_BATCH_TARGET_CLONES
void GradientBatchInto(std::span<const double> inv_dx,
                       std::span<const double> inv_2dx, const BatchField& f,
                       BatchField& out) {
  const std::size_t n = f.nodes();
  const std::size_t m = f.lanes();
  const double* fd = f.data();
  double* od = out.data();
  LaneDiffMul(fd + m, fd, inv_dx.data(), od, m);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    LaneDiffMul(fd + (i + 1) * m, fd + (i - 1) * m, inv_2dx.data(), od + i * m,
                m);
  }
  LaneDiffMul(fd + (n - 1) * m, fd + (n - 2) * m, inv_dx.data(),
              od + (n - 1) * m, m);
}

MFGCP_BATCH_TARGET_CLONES
void UpwindGradientBatchInto(std::span<const double> inv_dx,
                             const BatchField& f, const BatchField& velocity,
                             BatchField& out) {
  const std::size_t n = f.nodes();
  const std::size_t m = f.lanes();
  const double* fd = f.data();
  const double* vd = velocity.data();
  double* od = out.data();
  // At node 0 the scalar kernel's backward and forward branches coincide on
  // (f[1] - f[0]) * inv_dx, so the boundary rows need no per-lane select;
  // same for node n-1 with (f[n-1] - f[n-2]) * inv_dx.
  LaneDiffMul(fd + m, fd, inv_dx.data(), od, m);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    LaneUpwind(fd + i * m, fd + (i - 1) * m, fd + (i + 1) * m, vd + i * m,
               inv_dx.data(), od + i * m, m);
  }
  LaneDiffMul(fd + (n - 1) * m, fd + (n - 2) * m, inv_dx.data(),
              od + (n - 1) * m, m);
}

MFGCP_BATCH_TARGET_CLONES
void SecondDerivativeBatchInto(std::span<const double> inv_dx2,
                               const BatchField& f, BatchField& out) {
  const std::size_t n = f.nodes();
  const std::size_t m = f.lanes();
  const double* fd = f.data();
  double* od = out.data();
  for (std::size_t l = 0; l < m; ++l) {
    od[l] = 0.0;
    od[(n - 1) * m + l] = 0.0;
  }
  for (std::size_t i = 1; i + 1 < n; ++i) {
    LaneSecondDiff(fd + i * m, fd + (i - 1) * m, fd + (i + 1) * m,
                   inv_dx2.data(), od + i * m, m);
  }
  if (n >= 3) {
    for (std::size_t l = 0; l < m; ++l) {
      od[l] = od[m + l];
      od[(n - 1) * m + l] = od[(n - 2) * m + l];
    }
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
