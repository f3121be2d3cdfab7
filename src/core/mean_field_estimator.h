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
#include "numerics/time_field.h"

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
// the partial cell widths — depends on the params alone, so Create/Rebind
// tabulate it and a slice estimate is one straight pass over the density
// and policy rows, bitwise equal to calling the quadrature helpers.
//
// MeanFieldBatchEstimator (below) runs the same pass lane-parallel over a
// block of contents held in the batched learner's [time][node][lane]
// fields.

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

  // In-place variant; accepts flat policy rows and never allocates.
  common::Status EstimateInto(const numerics::Density1D& density,
                              std::span<const double> policy_slice,
                              Workspace& workspace,
                              MeanFieldQuantities& out) const;

  // Every time node of a trajectory at once: out[n] is the estimate of
  // (densities[n], policy[n]). The best-response loop's call; validates all
  // nodes before writing any, counts densities.size() estimates in one
  // counter update and times the call as one trajectory. `out` is resized
  // to densities.size().
  common::Status EstimateTrajectoryInto(
      std::span<const numerics::Density1D> densities,
      const numerics::TimeField2D& policy, Workspace& workspace,
      std::vector<MeanFieldQuantities>& out) const;

  const MfgParams& params() const { return params_; }

 private:
  friend class MeanFieldBatchEstimator;

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
    // spans a node, which keeps the fused loop's range test false.
    std::size_t first = 0;
    std::size_t last = 0;
    double head = 0.0;   // x(first) − a.
    double tail = 0.0;   // b − x(last).
    double width = 0.0;  // b − a.
  };

  MeanFieldEstimator(const MfgParams& params, const numerics::Grid1D& q_grid,
                     const econ::PricingModel& pricing)
      : params_(params), q_grid_(q_grid), pricing_(pricing) {
    InitTables();
  }

  // λ and q·λ interpolated at the interval ends.
  struct SliceEnds {
    double sa_w = 0.0;
    double sb_w = 0.0;
    double sa_v = 0.0;
    double sb_v = 0.0;
    double da_w = 0.0;
    double db_w = 0.0;
  };

  void InitTables();
  common::Status CheckSlice(const numerics::Density1D& density,
                            std::size_t policy_size) const;
  // One validated slice: a single pass over the density row v and the
  // policy row x.
  void EstimateSlice(const double* v, const double* x,
                     MeanFieldQuantities& out) const;
  // The two ends of that pass around the interior walk (shared with the
  // lane-parallel estimator): node i of the slice is v[i * stride] /
  // x[i * stride], and sum k (rate, peer, sharer moment, sharer mass,
  // needer moment) sits at sums[k * sum_stride]. OpenSlice interpolates
  // the interval ends and starts every sum (halved end nodes, head partial
  // cells); CloseSlice adds the tail partial cells and derives the
  // quantities from the walked sums.
  void OpenSlice(const double* v, const double* x, std::size_t stride,
                 SliceEnds& ends, double* sums, std::size_t sum_stride) const;
  void CloseSlice(const double* v, std::size_t stride, const SliceEnds& ends,
                  const double* sums, std::size_t sum_stride,
                  MeanFieldQuantities& out) const;

  MfgParams params_;
  numerics::Grid1D q_grid_;
  econ::PricingModel pricing_;
  std::vector<double> q_coords_;  // q_grid_.x(i).
  IntervalTable sharer_;          // [lo, αQ].
  IntervalTable needer_;          // [αQ, hi].
};

// Lane-parallel MeanFieldEstimator::EstimateTrajectoryInto for a block of
// K contents (the lanes of BatchBestResponseLearner), reading the batch's
// [time][node][lane] density and policy fields in place: node i of lane l
// at time node n is field[(n * nq + i) * K + l].
//
// Each lane runs its own estimator's expression tree: the interval ends
// and closing terms go through the lane's MeanFieldEstimator, and the
// interior walk — the bulk of the work — runs across lanes at unit stride
// with the sums in registers (numerics/lane_vector.h packs). A lane's
// interior-cell ranges become [cell][lane] LaneSelect masks, never
// multiply-by-mask, so every output is bitwise the per-lane call's
// (guarded by LaneParallelTrajectoryMatchesPerLaneBitwise).
class MeanFieldBatchEstimator {
 public:
  MeanFieldBatchEstimator() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // use. Grow-only: lanes keep their estimators across ragged blocks.
  void Reset(std::size_t num_lanes);

  // Validates and tabulates lane `lane` (MeanFieldEstimator::Create or
  // Rebind). All bound lanes must share the q-grid size.
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
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  // optional<> because MeanFieldEstimator has no default constructor.
  std::vector<std::optional<MeanFieldEstimator>> lanes_;
  // [node][lane] tables: node coordinates, and 1.0 where cell c is an
  // interior cell of the lane's sharer / needer interval (else 0.0).
  numerics::BatchField q_coords_;
  numerics::BatchField in_sharer_;
  numerics::BatchField in_needer_;
  std::vector<double> dx_;
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_MEAN_FIELD_ESTIMATOR_H_
