#include "numerics/field2d.h"

namespace mfg::numerics {
namespace {

common::Status ValidateField(const Grid2D& grid,
                             std::span<const double> field) {
  if (field.size() != grid.size()) {
    return common::Status::InvalidArgument(
        "field size " + std::to_string(field.size()) + " != grid size " +
        std::to_string(grid.size()));
  }
  return common::Status::Ok();
}

// Trapezoid weight of node i on an n-point axis (1/2 at the ends).
inline double AxisWeight(std::size_t i, std::size_t n) {
  return (i == 0 || i + 1 == n) ? 0.5 : 1.0;
}

}  // namespace

common::StatusOr<double> Trapezoid2D(const Grid2D& grid,
                                     std::span<const double> field) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, field));
  const std::size_t n0 = grid.axis0().size();
  const std::size_t n1 = grid.axis1().size();
  double acc = 0.0;
  for (std::size_t i = 0; i < n0; ++i) {
    const double w0 = AxisWeight(i, n0);
    for (std::size_t j = 0; j < n1; ++j) {
      acc += w0 * AxisWeight(j, n1) * field[grid.Index(i, j)];
    }
  }
  return acc * grid.axis0().dx() * grid.axis1().dx();
}

common::StatusOr<double> Trapezoid2D(const Grid2D& grid,
                                     const std::vector<double>& field) {
  return Trapezoid2D(grid, std::span<const double>(field));
}

common::StatusOr<std::vector<double>> MarginalizeAxis0(
    const Grid2D& grid, std::span<const double> field) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, field));
  const std::size_t n0 = grid.axis0().size();
  const std::size_t n1 = grid.axis1().size();
  std::vector<double> out(n1, 0.0);
  for (std::size_t j = 0; j < n1; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n0; ++i) {
      acc += AxisWeight(i, n0) * field[grid.Index(i, j)];
    }
    out[j] = acc * grid.axis0().dx();
  }
  return out;
}

common::StatusOr<std::vector<double>> MarginalizeAxis1(
    const Grid2D& grid, std::span<const double> field) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, field));
  const std::size_t n0 = grid.axis0().size();
  const std::size_t n1 = grid.axis1().size();
  std::vector<double> out(n0, 0.0);
  for (std::size_t i = 0; i < n0; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n1; ++j) {
      acc += AxisWeight(j, n1) * field[grid.Index(i, j)];
    }
    out[i] = acc * grid.axis1().dx();
  }
  return out;
}

common::Status ClipAndNormalize2D(const Grid2D& grid,
                                  std::span<double> field) {
  MFG_RETURN_IF_ERROR(ValidateField(grid, field));
  for (double& v : field) {
    if (!(v > 0.0)) v = 0.0;  // Also clears NaN.
  }
  MFG_ASSIGN_OR_RETURN(double mass,
                       Trapezoid2D(grid, std::span<const double>(field)));
  if (!(mass > 1e-300)) {
    return common::Status::NumericalError("2-D density mass is ~0");
  }
  for (double& v : field) v /= mass;
  return common::Status::Ok();
}

common::StatusOr<std::vector<double>> OuterProduct(
    const Grid2D& grid, const std::vector<double>& axis0_values,
    const std::vector<double>& axis1_values) {
  if (axis0_values.size() != grid.axis0().size() ||
      axis1_values.size() != grid.axis1().size()) {
    return common::Status::InvalidArgument("axis values/grid size mismatch");
  }
  std::vector<double> out(grid.size());
  for (std::size_t i = 0; i < axis0_values.size(); ++i) {
    for (std::size_t j = 0; j < axis1_values.size(); ++j) {
      out[grid.Index(i, j)] = axis0_values[i] * axis1_values[j];
    }
  }
  return out;
}

}  // namespace mfg::numerics
