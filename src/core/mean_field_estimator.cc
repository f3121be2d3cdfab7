#include "core/mean_field_estimator.h"

#include <algorithm>
#include <cmath>

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

void MeanFieldEstimator::EstimateSlice(const double* v, const double* x,
                                       MeanFieldQuantities& out) const {
  const std::size_t n = q_coords_.size();
  const double* q = q_coords_.data();
  const double dx = q_grid_.dx();
  const IntervalTable& s = sharer_;
  const IntervalTable& d = needer_;
  // The q-weighted sample q·λ, rounded once per node exactly as the
  // materialized vector the quadrature helpers were handed.
  auto w = [q, v](std::size_t i) { return q[i] * v[i]; };
  // LinearInterpolate at a tabulated end: f[i] + (f[i+1] − f[i])·t.
  auto end_w = [&w](std::size_t i, double t) {
    return w(i) + (w(i + 1) - w(i)) * t;
  };
  auto end_v = [v](std::size_t i, double t) {
    return v[i] + (v[i + 1] - v[i]) * t;
  };

  // Interval ends and head partial cells, computed unconditionally (every
  // tabulated index is in range) and used only by the interval shapes
  // that need them.
  const double sa_w = end_w(s.cell_a, s.t_a);
  const double sb_w = end_w(s.cell_b, s.t_b);
  const double sa_v = end_v(s.cell_a, s.t_a);
  const double sb_v = end_v(s.cell_b, s.t_b);
  const double da_w = end_w(d.cell_a, d.t_a);
  const double db_w = end_w(d.cell_b, d.t_b);

  // The five quadratures share one walk over the nodes. Each accumulator
  // adds its terms in its helper's order — full spans (Trapezoid,
  // TrapezoidProduct) start from the halved end nodes and add nodes
  // 1..n−2; interval sums (TrapezoidOnInterval) start from the head
  // partial cell and add the interior cells [first, last) before the tail
  // — so the bits match, and interleaving the independent add chains buys
  // instruction-level parallelism. Interior cells end before cell n−2
  // (last ≤ n−2), so the walk stops where the full spans do.
  double rate = 0.5 * (v[0] * x[0] + v[n - 1] * x[n - 1]);
  double peer = 0.5 * (w(0) + w(n - 1));
  double sharer_moment = 0.5 * (sa_w + w(s.first)) * s.head;
  double sharer_mass = 0.5 * (sa_v + v[s.first]) * s.head;
  double needer_moment = 0.5 * (da_w + w(d.first)) * d.head;
  double w_prev = w(0);
  for (std::size_t c = 0; c + 2 < n; ++c) {
    const double v_next = v[c + 1];
    const double w_next = q[c + 1] * v_next;
    rate += v_next * x[c + 1];
    peer += w_next;
    if (c >= s.first && c < s.last) {
      sharer_moment += 0.5 * (w_prev + w_next) * dx;
      sharer_mass += 0.5 * (v[c] + v_next) * dx;
    }
    if (c >= d.first && c < d.last) {
      needer_moment += 0.5 * (w_prev + w_next) * dx;
    }
    w_prev = w_next;
  }
  auto finish = [](const IntervalTable& t, double acc, double fa, double fb,
                   double f_last) {
    if (t.empty) return 0.0;
    if (t.one_cell) return 0.5 * (fa + fb) * t.width;
    return acc + 0.5 * (f_last + fb) * t.tail;
  };
  sharer_moment = finish(s, sharer_moment, sa_w, sb_w, w(s.last));
  sharer_mass = finish(s, sharer_mass, sa_v, sb_v, v[s.last]);
  needer_moment = finish(d, needer_moment, da_w, db_w, w(d.last));

  // Numerical quadrature can produce tiny negatives near empty regions.
  out.mean_caching_rate = std::clamp(rate * dx, 0.0, 1.0);
  out.mean_peer_remaining = peer * dx;
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

}  // namespace mfg::core
