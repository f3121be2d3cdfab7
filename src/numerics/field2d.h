#ifndef MFGCP_NUMERICS_FIELD2D_H_
#define MFGCP_NUMERICS_FIELD2D_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/grid.h"

// Operations on row-major fields over a Grid2D tensor grid — the
// representation used by the full 2-D (h, q) HJB/FPK solvers. Axis 0 is
// the channel coordinate h, axis 1 the cache coordinate q, matching
// core/hjb_solver_2d.h.
//
// Span arguments accept rows of flat TimeField2D trajectories and vectors
// alike; Trapezoid2D keeps a vector overload for brace-initialized calls.

namespace mfg::numerics {

// 2-D trapezoid integral ∫∫ f dx0 dx1 over the grid span.
common::StatusOr<double> Trapezoid2D(const Grid2D& grid,
                                     std::span<const double> field);
common::StatusOr<double> Trapezoid2D(const Grid2D& grid,
                                     const std::vector<double>& field);

// Marginalizes axis 0 away: out[j] = ∫ f(x0, x1_j) dx0 (trapezoid).
common::StatusOr<std::vector<double>> MarginalizeAxis0(
    const Grid2D& grid, std::span<const double> field);

// Marginalizes axis 1 away: out[i] = ∫ f(x0_i, x1) dx1 (trapezoid).
common::StatusOr<std::vector<double>> MarginalizeAxis1(
    const Grid2D& grid, std::span<const double> field);

// Clips negatives to zero and rescales so Trapezoid2D == 1. Fails when
// the total mass is ~0.
common::Status ClipAndNormalize2D(const Grid2D& grid, std::span<double> field);

// Product density f(x0, x1) = g0(x0) · g1(x1) from per-axis samples.
common::StatusOr<std::vector<double>> OuterProduct(
    const Grid2D& grid, const std::vector<double>& axis0_values,
    const std::vector<double>& axis1_values);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_FIELD2D_H_
