#include "numerics/density.h"

#include <cmath>
#include <numbers>

#include "common/math_util.h"
#include "numerics/quadrature.h"

namespace mfg::numerics {
namespace {

// Rescales samples of `grid` to unit trapezoid mass.
common::Status NormalizeSamples(const Grid1D& grid, std::span<double> values) {
  MFG_ASSIGN_OR_RETURN(const double mass,
                       Trapezoid(grid, std::span<const double>(values)));
  if (!(mass > 1e-300)) {
    return common::Status::NumericalError("density mass is ~0");
  }
  for (double& v : values) v /= mass;
  return common::Status::Ok();
}

}  // namespace

double GaussianPdf(double x, double mean, double stddev) {
  const double z = (x - mean) / stddev;
  return std::exp(-0.5 * z * z) /
         (stddev * std::sqrt(2.0 * std::numbers::pi));
}

common::StatusOr<Density1D> Density1D::Uniform(const Grid1D& grid) {
  const double height = 1.0 / (grid.hi() - grid.lo());
  return Density1D(grid, std::vector<double>(grid.size(), height));
}

common::StatusOr<Density1D> Density1D::TruncatedGaussian(const Grid1D& grid,
                                                         double mean,
                                                         double stddev) {
  Density1D density;
  MFG_RETURN_IF_ERROR(TruncatedGaussianInto(grid, mean, stddev, density));
  return density;
}

common::Status Density1D::TruncatedGaussianInto(const Grid1D& grid,
                                                double mean, double stddev,
                                                Density1D& out) {
  if (stddev <= 0.0) {
    return common::Status::InvalidArgument("stddev must be positive");
  }
  out.grid_ = grid;
  out.values_.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out.values_[i] = GaussianPdf(grid.x(i), mean, stddev);
  }
  common::Status normalized = out.Normalize();
  if (!normalized.ok()) {
    return common::Status::InvalidArgument(
        "Gaussian mass underflows on the grid span (mean too far outside)");
  }
  return common::Status::Ok();
}

common::StatusOr<Density1D> Density1D::FromSamples(
    const Grid1D& grid, std::vector<double> values) {
  if (values.size() != grid.size()) {
    return common::Status::InvalidArgument("values/grid size mismatch");
  }
  for (double v : values) {
    if (v < 0.0 || !std::isfinite(v)) {
      return common::Status::InvalidArgument(
          "density samples must be finite and non-negative");
    }
  }
  Density1D density(grid, std::move(values));
  MFG_RETURN_IF_ERROR(density.Normalize());
  return density;
}

common::StatusOr<Density1D> Density1D::FromSamplesUnchecked(
    const Grid1D& grid, std::vector<double> values) {
  if (values.size() != grid.size()) {
    return common::Status::InvalidArgument("values/grid size mismatch");
  }
  return Density1D(grid, std::move(values));
}

common::StatusOr<Density1D> Density1D::FromPoints(
    const Grid1D& grid, const std::vector<double>& points) {
  if (points.empty()) {
    return common::Status::InvalidArgument("no points");
  }
  std::vector<double> values(grid.size(), 0.0);
  for (double p : points) {
    const double clamped = common::Clamp(p, grid.lo(), grid.hi());
    const std::size_t i = grid.CellIndex(clamped);
    const double t = (clamped - grid.x(i)) / grid.dx();
    // Cloud-in-cell: split the unit mass between the two bracketing nodes,
    // as density (divide by dx so that trapezoid mass integrates to ~1).
    values[i] += (1.0 - t) / grid.dx();
    values[i + 1] += t / grid.dx();
  }
  Density1D density(grid, std::move(values));
  MFG_RETURN_IF_ERROR(density.Normalize());
  return density;
}

double Density1D::Mass() const {
  return Trapezoid(grid_, values_).value();
}

double Density1D::Mean() const {
  std::vector<double> weighted(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    weighted[i] = grid_.x(i) * values_[i];
  }
  return Trapezoid(grid_, weighted).value();
}

double Density1D::Variance() const {
  const double mean = Mean();
  std::vector<double> weighted(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const double d = grid_.x(i) - mean;
    weighted[i] = d * d * values_[i];
  }
  return Trapezoid(grid_, weighted).value();
}

double Density1D::MassOnInterval(double a, double b) const {
  return TrapezoidOnInterval(grid_, values_, a, b).value();
}

double Density1D::MeanOnInterval(double a, double b) const {
  std::vector<double> weighted(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    weighted[i] = grid_.x(i) * values_[i];
  }
  return TrapezoidOnInterval(grid_, weighted, a, b).value();
}

common::Status Density1D::Normalize() {
  return NormalizeSamples(grid_, values_);
}

common::Status Density1D::ClipAndNormalize() {
  return ClipAndNormalize(grid_, values_);
}

common::Status Density1D::ClipAndNormalize(const Grid1D& grid,
                                           std::span<double> values) {
  for (double& v : values) {
    if (!(v > 0.0)) v = 0.0;  // Also clears NaN.
  }
  return NormalizeSamples(grid, values);
}

common::StatusOr<double> Density1D::L1Distance(const Density1D& other) const {
  if (!(grid_ == other.grid_)) {
    return common::Status::InvalidArgument(
        "L1 distance requires identical grids");
  }
  std::vector<double> diff(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    diff[i] = std::fabs(values_[i] - other.values_[i]);
  }
  return Trapezoid(grid_, diff);
}

}  // namespace mfg::numerics
