#ifndef MFGCP_NUMERICS_DENSITY_H_
#define MFGCP_NUMERICS_DENSITY_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "numerics/grid.h"

// Probability densities sampled on a Grid1D — the representation of the
// paper's mean-field distribution λ(S_k(t)) (Eq. 14). Provides the
// truncated-Gaussian initial condition used in §V-A (λ(0) ∼ N(mean, σ²)
// scaled to the cache-state domain) and moment/normalization utilities.

namespace mfg::numerics {

class Density1D {
 public:
  // An empty density (degenerate grid, no samples). Exists so long-lived
  // workspaces can hold a Density1D slot and fill it in place with the
  // *Into factories below; most callers want the named factories instead.
  Density1D() = default;

  // A uniform density over the grid span.
  static common::StatusOr<Density1D> Uniform(const Grid1D& grid);

  // A Gaussian N(mean, stddev²) truncated and renormalized to the grid
  // span. Fails on stddev <= 0 or a mean so far outside the span that the
  // truncated mass underflows.
  static common::StatusOr<Density1D> TruncatedGaussian(const Grid1D& grid,
                                                       double mean,
                                                       double stddev);

  // In-place variant: writes the same truncated Gaussian into `out`,
  // reusing its sample storage. Zero allocations once `out` has held a
  // density of the same grid size. On failure `out` is left unspecified.
  static common::Status TruncatedGaussianInto(const Grid1D& grid, double mean,
                                              double stddev, Density1D& out);

  // Wraps raw non-negative samples, renormalizing to unit mass. Fails on
  // negative entries or zero total mass.
  static common::StatusOr<Density1D> FromSamples(const Grid1D& grid,
                                                 std::vector<double> values);

  // Wraps raw samples without validation or normalization. For solver
  // internals that immediately follow up with ClipAndNormalize(); fails
  // only on a size mismatch.
  static common::StatusOr<Density1D> FromSamplesUnchecked(
      const Grid1D& grid, std::vector<double> values);

  // A kernel-free empirical density: histogram of point masses placed at
  // `points`, each spread linearly over its two neighbouring nodes (cloud-
  // in-cell). Used to compare agent populations against the mean field.
  static common::StatusOr<Density1D> FromPoints(
      const Grid1D& grid, const std::vector<double>& points);

  const Grid1D& grid() const { return grid_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  double value_at_node(std::size_t i) const { return values_[i]; }

  // Trapezoid mass ∫ λ dq (≈ 1 after normalization).
  double Mass() const;

  // First moment ∫ q λ(q) dq — the paper's q̄ (Eq. 18 with this density).
  double Mean() const;

  // Second central moment.
  double Variance() const;

  // Mass in [a, b] ∩ span.
  double MassOnInterval(double a, double b) const;

  // Partial first moment ∫_[a,b] q λ(q) dq.
  double MeanOnInterval(double a, double b) const;

  // Rescales so Mass() == 1. Fails if total mass is ~0.
  common::Status Normalize();

  // Clamps negatives to zero (guard after FD updates) and renormalizes.
  common::Status ClipAndNormalize();

  // The same on raw samples of `grid` held elsewhere (a row of a flat
  // field); the member delegates to it.
  static common::Status ClipAndNormalize(const Grid1D& grid,
                                         std::span<double> values);

  // L1 distance ∫ |λ - other| dq; both must share the grid.
  common::StatusOr<double> L1Distance(const Density1D& other) const;

 private:
  Density1D(const Grid1D& grid, std::vector<double> values)
      : grid_(grid), values_(std::move(values)) {}

  Grid1D grid_;
  std::vector<double> values_;
};

// Standard normal PDF.
double GaussianPdf(double x, double mean, double stddev);

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_DENSITY_H_
