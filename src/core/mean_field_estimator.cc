#include "core/mean_field_estimator.h"

#include <algorithm>
#include <cmath>

#include "numerics/lane_vector.h"
#include "numerics/simd_support.h"
#include "obs/obs.h"

namespace mfg::core {

void SetSharingTerms(double sharing_price, bool sharing_enabled,
                     MeanFieldQuantities& out) {
  const double lacking = 1.0 - out.sharer_fraction;
  out.case3_fraction = lacking * lacking;
  out.sharing_benefit = 0.0;
  if (sharing_enabled && out.sharer_fraction > 1e-9) {
    const double ratio = (1.0 - out.case3_fraction) / out.sharer_fraction;
    out.sharing_benefit =
        sharing_price * out.delta_q * std::max(ratio - 1.0, 0.0);
  }
}

common::StatusOr<MeanFieldEstimator> MeanFieldEstimator::Create(
    const MfgParams& params) {
  MeanFieldEstimator estimator;
  MFG_RETURN_IF_ERROR(estimator.Rebind(params));
  return estimator;
}

common::Status MeanFieldEstimator::Rebind(const MfgParams& params) {
  batch_.Reset(1);
  MFG_RETURN_IF_ERROR(batch_.BindLane(0, params));
  MFG_ASSIGN_OR_RETURN(q_grid_, params.MakeQGrid());
  params_ = params;
  return common::Status::Ok();
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

common::Status MeanFieldEstimator::EstimateInto(
    const numerics::Density1D& density, std::span<const double> policy_slice,
    Workspace& /*workspace*/, MeanFieldQuantities& out) const {
  // Counter only: a slice estimate is too cheap for a trace span.
  MFG_OBS_COUNT("core.mean_field.estimates", 1);
  if (!(density.grid() == q_grid_)) {
    return common::Status::InvalidArgument(
        "density grid does not match the estimator's q-grid");
  }
  if (policy_slice.size() != q_grid_.size()) {
    return common::Status::InvalidArgument(
        "policy slice size does not match the density grid");
  }
  static constexpr std::uint8_t kCounted[] = {1};
  batch_.EstimateNodes(1, density.values().data(), policy_slice.data(),
                       kCounted, std::span<MeanFieldQuantities>(&out, 1));
  return common::Status::Ok();
}

namespace {

// Slots of the five running quadrature sums in a sums array; sum k of
// lane l sits at sums[k * kGroup + l].
enum SumSlot : std::size_t {
  kRate = 0,          // ∫ λ x.
  kPeer = 1,          // ∫ q λ.
  kSharerMoment = 2,  // ∫ q λ on [lo, αQ].
  kSharerMass = 3,    // ∫ λ on [lo, αQ].
  kNeederMoment = 4,  // ∫ q λ on [αQ, hi].
};

// The estimator opens and closes slices for at most kGroup lanes at a
// time (the widest lane pack), so its per-lane scratch is fixed-size.
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
    const double* dx, double* __restrict sums) {
  using numerics::LoadLanes;
  using numerics::SelectLanes;
  using numerics::StoreLanes;
  using Pack = numerics::LaneVector<W>;
  Pack rate = LoadLanes<W>(sums + kRate * kGroup);
  Pack peer = LoadLanes<W>(sums + kPeer * kGroup);
  Pack s_moment = LoadLanes<W>(sums + kSharerMoment * kGroup);
  Pack s_mass = LoadLanes<W>(sums + kSharerMass * kGroup);
  Pack d_moment = LoadLanes<W>(sums + kNeederMoment * kGroup);
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
  StoreLanes<W>(sums + kRate * kGroup, rate);
  StoreLanes<W>(sums + kPeer * kGroup, peer);
  StoreLanes<W>(sums + kSharerMoment * kGroup, s_moment);
  StoreLanes<W>(sums + kSharerMass * kGroup, s_mass);
  StoreLanes<W>(sums + kNeederMoment * kGroup, d_moment);
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
                                       sums + l0);
                 });
}

}  // namespace

void MeanFieldBatchEstimator::Reset(std::size_t num_lanes) {
  num_lanes_ = num_lanes;
  bound_lanes_ = 0;
  if (lanes_.size() < num_lanes) lanes_.resize(num_lanes);
  dx_.resize(num_lanes);
}

// The f-independent half of TrapezoidOnInterval and LinearInterpolate,
// expression for expression.
MeanFieldBatchEstimator::IntervalTable MeanFieldBatchEstimator::Tabulate(
    const numerics::Grid1D& grid, double a, double b) {
  const std::size_t n = grid.size();
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
}

common::Status MeanFieldBatchEstimator::BindLane(std::size_t lane,
                                                 const MfgParams& params) {
  if (lane >= num_lanes_) {
    return common::Status::InvalidArgument("lane out of range");
  }
  MFG_RETURN_IF_ERROR(params.Validate());
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(econ::PricingModel pricing,
                       econ::PricingModel::Create(params.pricing));
  const std::size_t nq = grid.size();
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
  Lane& tables = lanes_[lane];
  const double threshold = params.case_alpha * params.content_size;
  tables.sharer = Tabulate(grid, grid.lo(), threshold);
  tables.needer = Tabulate(grid, threshold, grid.hi());
  tables.pricing = pricing;
  tables.content_size = params.content_size;
  tables.sharing_price = params.utility.sharing_price;
  tables.sharing_enabled = params.sharing_enabled;
  // The lane's interior-cell range tests, as select masks.
  const IntervalTable& s = tables.sharer;
  const IntervalTable& d = tables.needer;
  for (std::size_t c = 0; c < nq; ++c) {
    q_coords_.at(c, lane) = grid.x(c);
    in_sharer_.at(c, lane) = c >= s.first && c < s.last ? 1.0 : 0.0;
    in_needer_.at(c, lane) = c >= d.first && c < d.last ? 1.0 : 0.0;
  }
  dx_[lane] = grid.dx();
  return common::Status::Ok();
}

// OpenSlice and CloseSlice are inlined into EstimateNodes (this file is
// their only user), which keeps the per-lane calls cheap.
__attribute__((always_inline)) inline void MeanFieldBatchEstimator::OpenSlice(
    std::size_t lane, const double* v, const double* x, SliceEnds& ends,
    double* sums) const {
  const std::size_t m = num_lanes_;
  const std::size_t n = nq_;
  const double* q = q_coords_.data() + lane;
  const IntervalTable& s = lanes_[lane].sharer;
  const IntervalTable& d = lanes_[lane].needer;
  // The q-weighted sample q·λ, rounded once per node exactly as the
  // materialized vector the quadrature helpers were handed.
  auto val = [v, m](std::size_t i) { return v[i * m]; };
  auto w = [q, m, &val](std::size_t i) { return q[i * m] * val(i); };
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
  sums[kRate * kGroup] = 0.5 * (val(0) * x[0] + val(n - 1) * x[(n - 1) * m]);
  sums[kPeer * kGroup] = 0.5 * (w(0) + w(n - 1));
  sums[kSharerMoment * kGroup] = 0.5 * (ends.sa_w + w(s.first)) * s.head;
  sums[kSharerMass * kGroup] = 0.5 * (ends.sa_v + val(s.first)) * s.head;
  sums[kNeederMoment * kGroup] = 0.5 * (ends.da_w + w(d.first)) * d.head;
}

__attribute__((always_inline)) inline void
MeanFieldBatchEstimator::CloseSlice(std::size_t lane, const double* v,
                                    const SliceEnds& ends, const double* sums,
                                    MeanFieldQuantities& out) const {
  const std::size_t m = num_lanes_;
  const double* q = q_coords_.data() + lane;
  const double dx = dx_[lane];
  const Lane& tables = lanes_[lane];
  auto val = [v, m](std::size_t i) { return v[i * m]; };
  auto w = [q, m, &val](std::size_t i) { return q[i * m] * val(i); };
  auto finish = [](const IntervalTable& t, double acc, double fa, double fb,
                   double f_last) {
    if (t.empty) return 0.0;
    if (t.one_cell) return 0.5 * (fa + fb) * t.width;
    return acc + 0.5 * (f_last + fb) * t.tail;
  };
  const IntervalTable& s = tables.sharer;
  const IntervalTable& d = tables.needer;
  const double sharer_moment = finish(s, sums[kSharerMoment * kGroup],
                                      ends.sa_w, ends.sb_w, w(s.last));
  const double sharer_mass = finish(s, sums[kSharerMass * kGroup], ends.sa_v,
                                    ends.sb_v, val(s.last));
  const double needer_moment = finish(d, sums[kNeederMoment * kGroup],
                                      ends.da_w, ends.db_w, w(d.last));

  // Numerical quadrature can produce tiny negatives near empty regions.
  out.mean_caching_rate = std::clamp(sums[kRate * kGroup] * dx, 0.0, 1.0);
  out.mean_peer_remaining = sums[kPeer * kGroup] * dx;
  out.price = tables.pricing->MeanFieldPrice(out.mean_peer_remaining,
                                             tables.content_size);
  out.delta_q = std::fabs(sharer_moment - needer_moment);
  out.sharer_fraction = std::clamp(sharer_mass, 0.0, 1.0);
  SetSharingTerms(tables.sharing_price, tables.sharing_enabled, out);
}

void MeanFieldBatchEstimator::EstimateTrajectoryInto(
    std::size_t nodes, const double* densities, const double* policy,
    std::span<const std::uint8_t> counted,
    std::span<MeanFieldQuantities> out) const {
  std::size_t timed_lanes = 0;  // One core.mean_field.trajectories each.
  for (std::size_t l = 0; l < num_lanes_; ++l) timed_lanes += counted[l] != 0;
  MFG_OBS_SCOPED_LANE_TIMER("core.mean_field.trajectory_seconds",
                            timed_lanes);
  MFG_OBS_COUNT("core.mean_field.trajectories", timed_lanes);
  MFG_OBS_COUNT("core.mean_field.estimates", timed_lanes * nodes);
  if (timed_lanes == 0) return;
  EstimateNodes(nodes, densities, policy, counted, out);
}

void MeanFieldBatchEstimator::EstimateNodes(
    std::size_t nodes, const double* densities, const double* policy,
    std::span<const std::uint8_t> counted,
    std::span<MeanFieldQuantities> out) const {
  const std::size_t m = num_lanes_;
  const std::size_t nq = nq_;
  for (std::size_t g = 0; g < m; g += kGroup) {
    const std::size_t width = std::min(kGroup, m - g);
    for (std::size_t n = 0; n < nodes; ++n) {
      const double* v = densities + n * nq * m + g;
      const double* x = policy + n * nq * m + g;
      SliceEnds ends[kGroup];
      double sums[5 * kGroup] = {};
      for (std::size_t j = 0; j < width; ++j) {
        if (counted[g + j] == 0) continue;
        OpenSlice(g + j, v + j, x + j, ends[j], sums + j);
      }
      WalkInterior(nq, width, m, v, x, q_coords_.data() + g,
                   in_sharer_.data() + g, in_needer_.data() + g,
                   dx_.data() + g, sums);
      for (std::size_t j = 0; j < width; ++j) {
        if (counted[g + j] == 0) continue;
        CloseSlice(g + j, v + j, ends[j], sums + j, out[n * m + g + j]);
      }
    }
  }
}

}  // namespace mfg::core
