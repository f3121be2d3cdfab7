#ifndef MFGCP_NUMERICS_GRID_H_
#define MFGCP_NUMERICS_GRID_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

// Uniform 1-D and tensor-product 2-D grids underlying the finite-difference
// HJB/FPK solvers. A Grid1D of n points spans [lo, hi] inclusive with
// spacing dx = (hi - lo) / (n - 1).

namespace mfg::numerics {

class Grid1D {
 public:
  // Fails unless n >= 2 and lo < hi.
  static common::StatusOr<Grid1D> Create(double lo, double hi, std::size_t n);

  // Degenerate two-node unit grid. Exists so that solution structs holding a
  // Grid1D can be default-constructed as out-parameters for the in-place
  // Solve variants; every real grid still goes through Create().
  Grid1D() : Grid1D(0.0, 1.0, 2) {}

  std::size_t size() const { return n_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double dx() const { return dx_; }

  // Coordinate of node i. Requires i < size().
  double x(std::size_t i) const;

  // All node coordinates.
  std::vector<double> Coordinates() const;

  // Index of the node nearest to x, clamped into the grid.
  std::size_t NearestIndex(double x) const;

  // Largest i with x(i) <= x, clamped to [0, size()-2]; the left node of
  // the cell containing x, used by interpolation.
  std::size_t CellIndex(double x) const;

  // True if x lies within [lo, hi] (inclusive, with tolerance).
  bool Contains(double x) const;

  friend bool operator==(const Grid1D& a, const Grid1D& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_ && a.n_ == b.n_;
  }

 private:
  Grid1D(double lo, double hi, std::size_t n);

  double lo_;
  double hi_;
  std::size_t n_;
  double dx_;
};

// Row-major field over a 2-D tensor grid (first axis "rows" = dimension 0).
class Grid2D {
 public:
  static common::StatusOr<Grid2D> Create(const Grid1D& axis0,
                                         const Grid1D& axis1);

  const Grid1D& axis0() const { return axis0_; }
  const Grid1D& axis1() const { return axis1_; }
  std::size_t size() const { return axis0_.size() * axis1_.size(); }

  // Flat row-major index of node (i, j).
  std::size_t Index(std::size_t i, std::size_t j) const;

 private:
  Grid2D(const Grid1D& axis0, const Grid1D& axis1)
      : axis0_(axis0), axis1_(axis1) {}

  Grid1D axis0_;
  Grid1D axis1_;
};

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_GRID_H_
