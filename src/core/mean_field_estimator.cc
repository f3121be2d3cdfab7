#include "core/mean_field_estimator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "numerics/lane_vector.h"
#include "numerics/simd_support.h"
#include "obs/obs.h"

namespace mfg::core {

common::StatusOr<MeanFieldEstimator> MeanFieldEstimator::Create(
    const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(econ::PricingModel pricing,
                       econ::PricingModel::Create(params.pricing));
  return MeanFieldEstimator(params, q_grid, pricing);
}

common::Status MeanFieldEstimator::Rebind(const MfgParams& params) {
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(econ::PricingModel pricing,
                       econ::PricingModel::Create(params.pricing));
  params_ = params;
  q_grid_ = q_grid;
  pricing_ = pricing;
  InitTables();
  return common::Status::Ok();
}

void MeanFieldEstimator::InitTables() {
  const numerics::Grid1D& grid = q_grid_;
  const std::size_t n = grid.size();
  q_coords_.resize(n);
  for (std::size_t i = 0; i < n; ++i) q_coords_[i] = grid.x(i);

  // The f-independent half of TrapezoidOnInterval and LinearInterpolate,
  // expression for expression.
  auto tabulate = [&grid, n](double a, double b) {
    IntervalTable table;
    a = std::max(a, grid.lo());
    b = std::min(b, grid.hi());
    if (a >= b) return table;
    table.empty = false;
    auto end = [&grid](double x, std::size_t& cell, double& t) {
      const double clamped = std::clamp(x, grid.lo(), grid.hi());
      cell = grid.CellIndex(clamped);
      t = std::clamp((clamped - grid.x(cell)) / grid.dx(), 0.0, 1.0);
    };
    end(a, table.cell_a, table.t_a);
    end(b, table.cell_b, table.t_b);
    table.width = b - a;
    std::size_t first = grid.CellIndex(a) + 1;
    while (first < n && grid.x(first) <= a) ++first;
    std::size_t last = grid.CellIndex(b);
    while (last > 0 && grid.x(last) >= b) --last;
    if (first > last || first >= n || grid.x(first) >= b) {
      table.one_cell = true;
      return table;
    }
    table.first = first;
    table.last = last;
    table.head = grid.x(first) - a;
    table.tail = b - grid.x(last);
    return table;
  };
  const double threshold = params_.case_alpha * params_.content_size;
  sharer_ = tabulate(grid.lo(), threshold);
  needer_ = tabulate(threshold, grid.hi());
}

common::StatusOr<MeanFieldQuantities> MeanFieldEstimator::Estimate(
    const numerics::Density1D& density,
    const std::vector<double>& policy_slice) const {
  Workspace workspace;
  MeanFieldQuantities out;
  MFG_RETURN_IF_ERROR(EstimateInto(
      density, std::span<const double>(policy_slice), workspace, out));
  return out;
}

common::Status MeanFieldEstimator::CheckSlice(
    const numerics::Density1D& density, std::size_t policy_size) const {
  if (!(density.grid() == q_grid_)) {
    return common::Status::InvalidArgument(
        "density grid does not match the estimator's q-grid");
  }
  if (policy_size != q_grid_.size()) {
    return common::Status::InvalidArgument(
        "policy slice size does not match the density grid");
  }
  return common::Status::Ok();
}

common::Status MeanFieldEstimator::EstimateInto(
    const numerics::Density1D& density, std::span<const double> policy_slice,
    Workspace& /*workspace*/, MeanFieldQuantities& out) const {
  // Counter only: a slice estimate is too cheap for a trace span.
  MFG_OBS_COUNT("core.mean_field.estimates", 1);
  MFG_RETURN_IF_ERROR(CheckSlice(density, policy_slice.size()));
  EstimateSlice(density.values().data(), policy_slice.data(), out);
  return common::Status::Ok();
}

common::Status MeanFieldEstimator::EstimateTrajectoryInto(
    std::span<const numerics::Density1D> densities,
    const numerics::TimeField2D& policy, Workspace& /*workspace*/,
    std::vector<MeanFieldQuantities>& out) const {
  const std::size_t nodes = densities.size();
  std::size_t timed_lanes = 1;  // One trajectory per call.
  MFG_OBS_SCOPED_LANE_TIMER("core.mean_field.trajectory_seconds",
                            timed_lanes);
  MFG_OBS_COUNT("core.mean_field.trajectories", 1);
  // One update per trajectory: the per-slice increment was a contended
  // atomic on every epoch worker's hottest loop.
  MFG_OBS_COUNT("core.mean_field.estimates", nodes);
  if (policy.size() != nodes) {
    return common::Status::InvalidArgument(
        "policy and density trajectories differ in length");
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    MFG_RETURN_IF_ERROR(CheckSlice(densities[n], policy.cols()));
  }
  out.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    EstimateSlice(densities[n].values().data(), policy[n].data(), out[n]);
  }
  return common::Status::Ok();
}

namespace {

// Slots of the five running quadrature sums in a sums array; sum k of
// lane l sits at sums[k * sum_stride + l].
enum SumSlot : std::size_t {
  kRate = 0,          // ∫ λ x.
  kPeer = 1,          // ∫ q λ.
  kSharerMoment = 2,  // ∫ q λ on [lo, αQ].
  kSharerMass = 3,    // ∫ λ on [lo, αQ].
  kNeederMoment = 4,  // ∫ q λ on [αQ, hi].
};

// The batch estimator opens and closes slices for at most kGroup lanes at
// a time (the widest lane pack), so its per-lane scratch is fixed-size.
constexpr std::size_t kGroup = 8;

// The interior walk of a slice estimate for W lanes at once, lane l's
// node i at v[i * stride + l]. The five quadratures share the walk; each
// sum adds its terms in its helper's order — full spans (Trapezoid,
// TrapezoidProduct) add nodes 1..n−2, interval sums (TrapezoidOnInterval)
// the interior cells [first, last) before the tail — so the bits match.
// Interior cells end before cell n−2 (last ≤ n−2), so the walk stops
// where the full spans do. Each lane's interior-cell range arrives as the
// in_s / in_d cell masks, applied by select; the sums and the carried
// previous node live in LaneVector registers. always_inline so each ISA
// clone of the dispatcher vectorizes the body at its own width.
template <std::size_t W>
__attribute__((always_inline)) inline void WalkInteriorImpl(
    std::size_t nq, std::size_t stride, const double* v, const double* x,
    const double* q, const double* in_s, const double* in_d,
    const double* dx, double* __restrict sums, std::size_t sum_stride) {
  using numerics::LoadLanes;
  using numerics::SelectLanes;
  using numerics::StoreLanes;
  using Pack = numerics::LaneVector<W>;
  Pack rate = LoadLanes<W>(sums + kRate * sum_stride);
  Pack peer = LoadLanes<W>(sums + kPeer * sum_stride);
  Pack s_moment = LoadLanes<W>(sums + kSharerMoment * sum_stride);
  Pack s_mass = LoadLanes<W>(sums + kSharerMass * sum_stride);
  Pack d_moment = LoadLanes<W>(sums + kNeederMoment * sum_stride);
  const Pack h = LoadLanes<W>(dx);
  Pack v_prev = LoadLanes<W>(v);
  Pack w_prev = LoadLanes<W>(q) * v_prev;
  for (std::size_t c = 0; c + 2 < nq; ++c) {
    const std::size_t cell = c * stride;
    const std::size_t next = cell + stride;
    const Pack v_next = LoadLanes<W>(v + next);
    const Pack w_next = LoadLanes<W>(q + next) * v_next;
    rate += v_next * LoadLanes<W>(x + next);
    peer += w_next;
    const Pack moment_cell = 0.5 * (w_prev + w_next) * h;
    const Pack mass_cell = 0.5 * (v_prev + v_next) * h;
    const Pack sharer = LoadLanes<W>(in_s + cell);
    s_moment = SelectLanes<W>(sharer, s_moment + moment_cell, s_moment);
    s_mass = SelectLanes<W>(sharer, s_mass + mass_cell, s_mass);
    d_moment = SelectLanes<W>(LoadLanes<W>(in_d + cell),
                              d_moment + moment_cell, d_moment);
    w_prev = w_next;
    v_prev = v_next;
  }
  StoreLanes<W>(sums + kRate * sum_stride, rate);
  StoreLanes<W>(sums + kPeer * sum_stride, peer);
  StoreLanes<W>(sums + kSharerMoment * sum_stride, s_moment);
  StoreLanes<W>(sums + kSharerMass * sum_stride, s_mass);
  StoreLanes<W>(sums + kNeederMoment * sum_stride, d_moment);
}

// Walks `width` ≤ kGroup lanes as lane packs; `sums` is [slot][kGroup].
MFGCP_BATCH_TARGET_CLONES
void WalkInterior(std::size_t nq, std::size_t width, std::size_t stride,
                  const double* v, const double* x, const double* q,
                  const double* in_s, const double* in_d, const double* dx,
                  double* __restrict sums) {
  numerics::ForEachLaneChunk(
      width, [&]<std::size_t W>(std::size_t l0)
                 __attribute__((always_inline)) {
                   WalkInteriorImpl<W>(nq, stride, v + l0, x + l0, q + l0,
                                       in_s + l0, in_d + l0, dx + l0,
                                       sums + l0, kGroup);
                 });
}

}  // namespace

// OpenSlice and CloseSlice are inlined into both callers (this file is
// their only user): with stride 1 the scalar slice keeps unit-stride
// addressing, and the batch loop keeps its per-lane calls cheap.
__attribute__((always_inline)) inline void MeanFieldEstimator::OpenSlice(
    const double* v, const double* x, std::size_t stride, SliceEnds& ends,
    double* sums, std::size_t sum_stride) const {
  const std::size_t n = q_coords_.size();
  const double* q = q_coords_.data();
  const IntervalTable& s = sharer_;
  const IntervalTable& d = needer_;
  // The q-weighted sample q·λ, rounded once per node exactly as the
  // materialized vector the quadrature helpers were handed.
  auto val = [v, stride](std::size_t i) { return v[i * stride]; };
  auto w = [q, &val](std::size_t i) { return q[i] * val(i); };
  // LinearInterpolate at a tabulated end: f[i] + (f[i+1] − f[i])·t.
  auto end_w = [&w](std::size_t i, double t) {
    return w(i) + (w(i + 1) - w(i)) * t;
  };
  auto end_v = [&val](std::size_t i, double t) {
    return val(i) + (val(i + 1) - val(i)) * t;
  };

  // Interval ends and head partial cells, computed unconditionally (every
  // tabulated index is in range) and used only by the interval shapes
  // that need them.
  ends.sa_w = end_w(s.cell_a, s.t_a);
  ends.sb_w = end_w(s.cell_b, s.t_b);
  ends.sa_v = end_v(s.cell_a, s.t_a);
  ends.sb_v = end_v(s.cell_b, s.t_b);
  ends.da_w = end_w(d.cell_a, d.t_a);
  ends.db_w = end_w(d.cell_b, d.t_b);

  // Full spans start from the halved end nodes; interval sums from the
  // head partial cell.
  sums[kRate * sum_stride] =
      0.5 * (val(0) * x[0] + val(n - 1) * x[(n - 1) * stride]);
  sums[kPeer * sum_stride] = 0.5 * (w(0) + w(n - 1));
  sums[kSharerMoment * sum_stride] = 0.5 * (ends.sa_w + w(s.first)) * s.head;
  sums[kSharerMass * sum_stride] = 0.5 * (ends.sa_v + val(s.first)) * s.head;
  sums[kNeederMoment * sum_stride] = 0.5 * (ends.da_w + w(d.first)) * d.head;
}

__attribute__((always_inline)) inline void MeanFieldEstimator::CloseSlice(
    const double* v, std::size_t stride, const SliceEnds& ends,
    const double* sums, std::size_t sum_stride,
    MeanFieldQuantities& out) const {
  const double* q = q_coords_.data();
  const double dx = q_grid_.dx();
  auto val = [v, stride](std::size_t i) { return v[i * stride]; };
  auto w = [q, &val](std::size_t i) { return q[i] * val(i); };
  auto finish = [](const IntervalTable& t, double acc, double fa, double fb,
                   double f_last) {
    if (t.empty) return 0.0;
    if (t.one_cell) return 0.5 * (fa + fb) * t.width;
    return acc + 0.5 * (f_last + fb) * t.tail;
  };
  const IntervalTable& s = sharer_;
  const IntervalTable& d = needer_;
  const double sharer_moment = finish(s, sums[kSharerMoment * sum_stride],
                                      ends.sa_w, ends.sb_w, w(s.last));
  const double sharer_mass = finish(s, sums[kSharerMass * sum_stride],
                                    ends.sa_v, ends.sb_v, val(s.last));
  const double needer_moment = finish(d, sums[kNeederMoment * sum_stride],
                                      ends.da_w, ends.db_w, w(d.last));

  // Numerical quadrature can produce tiny negatives near empty regions.
  out.mean_caching_rate = std::clamp(sums[kRate * sum_stride] * dx, 0.0, 1.0);
  out.mean_peer_remaining = sums[kPeer * sum_stride] * dx;
  out.price = pricing_.MeanFieldPrice(out.mean_peer_remaining,
                                      params_.content_size);
  out.delta_q = std::fabs(sharer_moment - needer_moment);
  out.sharer_fraction = std::clamp(sharer_mass, 0.0, 1.0);
  const double lacking = 1.0 - out.sharer_fraction;
  out.case3_fraction = lacking * lacking;

  // Φ̄² = p̄ Δq̄ ((1 − M'/M) / (M_k/M) − 1); guard the empty-sharer corner
  // (nobody can share -> no sharing benefit).
  if (out.sharer_fraction > 1e-9) {
    const double ratio = (1.0 - out.case3_fraction) / out.sharer_fraction;
    out.sharing_benefit = params_.utility.sharing_price * out.delta_q *
                          std::max(ratio - 1.0, 0.0);
  } else {
    out.sharing_benefit = 0.0;
  }
  if (!params_.sharing_enabled) out.sharing_benefit = 0.0;
}

void MeanFieldEstimator::EstimateSlice(const double* v, const double* x,
                                       MeanFieldQuantities& out) const {
  const std::size_t n = q_coords_.size();
  const double* q = q_coords_.data();
  const double dx = q_grid_.dx();
  const IntervalTable& s = sharer_;
  const IntervalTable& d = needer_;
  SliceEnds ends;
  double sums[5];
  OpenSlice(v, x, 1, ends, sums, 1);
  // WalkInteriorImpl's walk for one lane, with the interior-cell range
  // tests as branches (predictable here, cheaper than the lane masks).
  double w_prev = q[0] * v[0];
  for (std::size_t c = 0; c + 2 < n; ++c) {
    const double v_next = v[c + 1];
    const double w_next = q[c + 1] * v_next;
    sums[kRate] += v_next * x[c + 1];
    sums[kPeer] += w_next;
    if (c >= s.first && c < s.last) {
      sums[kSharerMoment] += 0.5 * (w_prev + w_next) * dx;
      sums[kSharerMass] += 0.5 * (v[c] + v_next) * dx;
    }
    if (c >= d.first && c < d.last) {
      sums[kNeederMoment] += 0.5 * (w_prev + w_next) * dx;
    }
    w_prev = w_next;
  }
  CloseSlice(v, 1, ends, sums, 1, out);
}

void MeanFieldBatchEstimator::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  if (lanes_.size() < num_lanes) lanes_.resize(num_lanes);
  dx_.resize(num_lanes);
}

common::Status MeanFieldBatchEstimator::BindLane(std::size_t lane,
                                                 const MfgParams& params) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  if (lanes_[lane].has_value()) {
    MFG_RETURN_IF_ERROR(lanes_[lane]->Rebind(params));
  } else {
    MFG_ASSIGN_OR_RETURN(MeanFieldEstimator estimator,
                         MeanFieldEstimator::Create(params));
    lanes_[lane].emplace(std::move(estimator));
  }
  const MeanFieldEstimator& estimator = *lanes_[lane];
  const std::size_t nq = estimator.q_coords_.size();
  if (bound_lanes_ == 0) {
    nq_ = nq;
    q_coords_.Assign(nq, num_lanes_, 0.0);
    in_sharer_.Assign(nq, num_lanes_, 0.0);
    in_needer_.Assign(nq, num_lanes_, 0.0);
  } else if (nq != nq_) {
    return common::Status::InvalidArgument(
        "batch lanes must share the grid shape");
  }
  ++bound_lanes_;
  // The lane's interior-cell range tests, as select masks.
  const MeanFieldEstimator::IntervalTable& s = estimator.sharer_;
  const MeanFieldEstimator::IntervalTable& d = estimator.needer_;
  for (std::size_t c = 0; c < nq; ++c) {
    q_coords_.at(c, lane) = estimator.q_coords_[c];
    in_sharer_.at(c, lane) = c >= s.first && c < s.last ? 1.0 : 0.0;
    in_needer_.at(c, lane) = c >= d.first && c < d.last ? 1.0 : 0.0;
  }
  dx_[lane] = estimator.q_grid_.dx();
  return common::Status::Ok();
}

void MeanFieldBatchEstimator::EstimateTrajectoryInto(
    std::size_t nodes, const double* densities, const double* policy,
    std::span<const std::uint8_t> counted,
    std::span<MeanFieldQuantities> out) const {
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  std::size_t timed_lanes = 0;  // One core.mean_field.trajectories each.
  for (std::size_t l = 0; l < m; ++l) timed_lanes += counted[l] != 0;
  MFG_OBS_SCOPED_LANE_TIMER("core.mean_field.trajectory_seconds",
                            timed_lanes);
  MFG_OBS_COUNT("core.mean_field.trajectories", timed_lanes);
  MFG_OBS_COUNT("core.mean_field.estimates", timed_lanes * nodes);
  if (timed_lanes == 0) return;

  for (std::size_t g = 0; g < m; g += kGroup) {
    const std::size_t width = std::min(kGroup, m - g);
    for (std::size_t n = 0; n < nodes; ++n) {
      const double* v = densities + n * nq * m + g;
      const double* x = policy + n * nq * m + g;
      MeanFieldEstimator::SliceEnds ends[kGroup];
      double sums[5 * kGroup] = {};
      for (std::size_t j = 0; j < width; ++j) {
        if (counted[g + j] == 0) continue;
        lanes_[g + j]->OpenSlice(v + j, x + j, m, ends[j], sums + j, kGroup);
      }
      WalkInterior(nq, width, m, v, x, q_coords_.data() + g,
                   in_sharer_.data() + g, in_needer_.data() + g,
                   dx_.data() + g, sums);
      for (std::size_t j = 0; j < width; ++j) {
        if (counted[g + j] == 0) continue;
        lanes_[g + j]->CloseSlice(v + j, m, ends[j], sums + j, kGroup,
                                  out[n * m + g + j]);
      }
    }
  }
}

}  // namespace mfg::core
