#include "numerics/grid.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mfg::numerics {

common::StatusOr<Grid1D> Grid1D::Create(double lo, double hi, std::size_t n) {
  if (n < 2) {
    return common::Status::InvalidArgument("Grid1D requires n >= 2");
  }
  if (!(lo < hi)) {
    return common::Status::InvalidArgument("Grid1D requires lo < hi");
  }
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    return common::Status::InvalidArgument("Grid1D bounds must be finite");
  }
  return Grid1D(lo, hi, n);
}

Grid1D::Grid1D(double lo, double hi, std::size_t n)
    : lo_(lo), hi_(hi), n_(n), dx_((hi - lo) / static_cast<double>(n - 1)) {}

double Grid1D::x(std::size_t i) const {
  MFG_DCHECK_LT(i, n_);
  return i + 1 == n_ ? hi_ : lo_ + dx_ * static_cast<double>(i);
}

std::vector<double> Grid1D::Coordinates() const {
  std::vector<double> coords(n_);
  for (std::size_t i = 0; i < n_; ++i) coords[i] = x(i);
  return coords;
}

std::size_t Grid1D::NearestIndex(double value) const {
  const double pos = (value - lo_) / dx_;
  if (pos <= 0.0) return 0;
  const auto idx = static_cast<std::size_t>(pos + 0.5);
  return std::min(idx, n_ - 1);
}

std::size_t Grid1D::CellIndex(double value) const {
  const double pos = (value - lo_) / dx_;
  if (pos <= 0.0) return 0;
  const auto idx = static_cast<std::size_t>(pos);
  return std::min(idx, n_ - 2);
}

bool Grid1D::Contains(double value) const {
  const double tol = 1e-12 * (std::fabs(lo_) + std::fabs(hi_) + 1.0);
  return value >= lo_ - tol && value <= hi_ + tol;
}

common::StatusOr<Grid2D> Grid2D::Create(const Grid1D& axis0,
                                        const Grid1D& axis1) {
  return Grid2D(axis0, axis1);
}

std::size_t Grid2D::Index(std::size_t i, std::size_t j) const {
  MFG_DCHECK_LT(i, axis0_.size());
  MFG_DCHECK_LT(j, axis1_.size());
  return i * axis1_.size() + j;
}

}  // namespace mfg::numerics
