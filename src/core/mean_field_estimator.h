#ifndef MFGCP_CORE_MEAN_FIELD_ESTIMATOR_H_
#define MFGCP_CORE_MEAN_FIELD_ESTIMATOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/density.h"
#include "numerics/grid.h"

// The mean-field estimator (§IV-B module 1): converts the mean-field
// density λ(t, ·) and the candidate policy x(t, ·) into the economic
// quantities a generic EDP needs — without any peer communication:
//
//   mean caching rate  ⟨x⟩(t) = ∫ λ x dq
//   price              p(t)   = p̂ − η₁ (Q_k − q̄(t))          (Eq. 17,
//                         supply = cached stock; see econ/pricing.h)
//   mean peer state    q̄₋(t)  = ∫ q λ dq                      (Eq. 18)
//   transfer size      Δq̄(t)  = |∫_{q≤αQ} q λ dq − ∫_{q>αQ} q λ dq|
//   sharing benefit    Φ̄²(t)  = p̄ Δq̄ ((M − M'_k)/M_k − 1)
//
// with M_k/M ≈ mass(q ≤ αQ) (EDPs that cached enough to share) and
// M'_k/M ≈ mass(q > αQ)² (both the EDP and its candidate peer lack the
// content → case 3). Note the algebraic collapse: with s = mass(q > αQ),
// (1 − s²)/(1 − s) − 1 = s, so Φ̄² = p̄ Δq̄ s away from the degenerate
// m_q → 0 corner (which is guarded).
//
// Every integral is the trapezoid rule of numerics/quadrature.h (the
// partial moments are TrapezoidOnInterval on [lo, αQ] and [αQ, hi]). The
// grid-only part of those rules — node coordinates, the interpolation
// cell and weight of each interval end, the first/last interior node and
// the partial cell widths — depends on the params alone, so binding a
// lane tabulates it and a slice estimate is one straight pass over the
// density and policy rows, bitwise equal to calling the quadrature
// helpers.
//
// MeanFieldBatchEstimator runs that pass lane-parallel over a block of
// contents; MeanFieldEstimator is its one-lane view.

namespace mfg::core {

struct MeanFieldQuantities {
  double mean_caching_rate = 0.0;  // ⟨x⟩.
  double price = 0.0;              // p_k(t).
  double mean_peer_remaining = 0.0;  // q̄₋,k(t).
  double delta_q = 0.0;            // Δq̄(t).
  double sharer_fraction = 0.0;    // M_k/M estimate.
  double case3_fraction = 0.0;     // M'_k/M estimate.
  double sharing_benefit = 0.0;    // Φ̄²(t).
};

// Closes the sharing statistics from out.sharer_fraction and out.delta_q:
// case3_fraction = (1 − M_k/M)² and Φ̄² = p̄ Δq̄ ((1 − M'/M) / (M_k/M) − 1),
// clamped at 0. The empty-sharer corner (nobody can share) and a disabled
// sharing switch give no sharing benefit. Shared by the estimator and the
// finite-player game's empirical counterpart (finite_game.cc).
void SetSharingTerms(double sharing_price, bool sharing_enabled,
                     MeanFieldQuantities& out);

// The estimator for a block of K contents (the lanes of
// BatchBestResponseLearner), reading [time][node][lane] density and policy
// fields in place: node i of lane l at time node n is
// field[(n * nq + i) * K + l].
//
// Each lane keeps its own tables (interval ends, pricing, Q_k, sharing
// price and switch) and runs its own expression tree: the interval ends
// and closing terms are per lane, and the interior walk — the bulk of the
// work — runs across lanes at unit stride with the sums in registers
// (numerics/lane_vector.h packs). A lane's interior-cell ranges become
// [cell][lane] LaneSelect masks, never multiply-by-mask, so every lane's
// output is independent of the batch width and bitwise the quadrature
// helpers' (guarded by LaneParallelTrajectoryMatchesPerLaneBitwise).
class MeanFieldBatchEstimator {
 public:
  MeanFieldBatchEstimator() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // use. Grow-only: lanes keep their table storage across ragged blocks.
  void Reset(std::size_t num_lanes);

  // Validates `params` (MfgParams::Validate(), the q-grid and the pricing
  // model) and tabulates lane `lane`; a failed bind leaves the lane's
  // tables as they were. All bound lanes must share the q-grid size.
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  // Estimates time nodes [0, nodes) of every lane with counted[l] != 0
  // into out[n * K + l]; the other lanes' entries are left as they are
  // (their field columns may hold anything). Counts and times one
  // trajectory — nodes estimates — per counted lane.
  void EstimateTrajectoryInto(std::size_t nodes, const double* densities,
                              const double* policy,
                              std::span<const std::uint8_t> counted,
                              std::span<MeanFieldQuantities> out) const;

 private:
  // The per-slice view counts its own estimates around the uncounted walk.
  friend class MeanFieldEstimator;

  // TrapezoidOnInterval(grid, f, a, b) with everything that does not depend
  // on f precomputed (same expressions, so the same bits).
  struct IntervalTable {
    bool empty = true;      // a >= b after clamping: the integral is 0.
    bool one_cell = false;  // a and b in one cell: 0.5 (fa + fb)(b − a).
    std::size_t cell_a = 0;  // LinearInterpolate cell and clamped weight
    double t_a = 0.0;        // of each end.
    std::size_t cell_b = 0;
    double t_b = 0.0;
    // First node strictly above a / last strictly below b; the interior
    // cells are [first, last). first == last == 0 unless the interval
    // spans a node, which keeps the walk's masks clear.
    std::size_t first = 0;
    std::size_t last = 0;
    double head = 0.0;   // x(first) − a.
    double tail = 0.0;   // b − x(last).
    double width = 0.0;  // b − a.
  };

  // One lane's bind-time tables.
  struct Lane {
    IntervalTable sharer;  // [lo, αQ].
    IntervalTable needer;  // [αQ, hi].
    std::optional<econ::PricingModel> pricing;  // Set by BindLane.
    double content_size = 0.0;
    double sharing_price = 0.0;
    bool sharing_enabled = true;
  };

  // λ and q·λ interpolated at the interval ends.
  struct SliceEnds {
    double sa_w = 0.0;
    double sb_w = 0.0;
    double sa_v = 0.0;
    double sb_v = 0.0;
    double da_w = 0.0;
    double db_w = 0.0;
  };

  static IntervalTable Tabulate(const numerics::Grid1D& grid, double a,
                                double b);

  // EstimateTrajectoryInto without the counters and the timer.
  void EstimateNodes(std::size_t nodes, const double* densities,
                     const double* policy,
                     std::span<const std::uint8_t> counted,
                     std::span<MeanFieldQuantities> out) const;
  // The two ends of a slice pass around the interior walk, for lane
  // `lane` with node i of the slice at v[i * K] / x[i * K] and sum k
  // (rate, peer, sharer moment, sharer mass, needer moment) at
  // sums[k * kGroup]. OpenSlice interpolates the interval ends and starts
  // every sum (halved end nodes, head partial cells); CloseSlice adds the
  // tail partial cells and derives the quantities from the walked sums.
  void OpenSlice(std::size_t lane, const double* v, const double* x,
                 SliceEnds& ends, double* sums) const;
  void CloseSlice(std::size_t lane, const double* v, const SliceEnds& ends,
                  const double* sums, MeanFieldQuantities& out) const;

  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  std::vector<Lane> lanes_;
  // [node][lane] tables: node coordinates, and 1.0 where cell c is an
  // interior cell of the lane's sharer / needer interval (else 0.0).
  numerics::BatchField q_coords_;
  numerics::BatchField in_sharer_;
  numerics::BatchField in_needer_;
  std::vector<double> dx_;
};

// The estimator for one content: a one-lane view of
// MeanFieldBatchEstimator, estimating one time slice per call.
class MeanFieldEstimator {
 public:
  // Per-caller scratch of the Into variants. The tabulated estimator keeps
  // none; the type stays in the signatures its callers already thread
  // through.
  struct Workspace {};

  // Fails on invalid params (delegates to MfgParams::Validate()).
  static common::StatusOr<MeanFieldEstimator> Create(const MfgParams& params);

  // Re-parameterizes the estimator in place (see HjbSolver1D::Rebind);
  // allocation-free for the profile-less params the epoch loop builds.
  common::Status Rebind(const MfgParams& params);

  // Computes all quantities for one time slice. `policy_slice` is x(t, ·)
  // sampled on the density's grid, which must be the params' q-grid.
  common::StatusOr<MeanFieldQuantities> Estimate(
      const numerics::Density1D& density,
      const std::vector<double>& policy_slice) const;

  // In-place variant; accepts flat policy rows and never allocates. Counts
  // one core.mean_field.estimates and no trajectory.
  common::Status EstimateInto(const numerics::Density1D& density,
                              std::span<const double> policy_slice,
                              Workspace& workspace,
                              MeanFieldQuantities& out) const;

  const MfgParams& params() const { return params_; }

 private:
  MeanFieldEstimator() = default;

  MfgParams params_;
  numerics::Grid1D q_grid_;
  MeanFieldBatchEstimator batch_;  // Bound at one lane.
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_MEAN_FIELD_ESTIMATOR_H_
