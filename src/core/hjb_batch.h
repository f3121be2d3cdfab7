#ifndef MFGCP_CORE_HJB_BATCH_H_
#define MFGCP_CORE_HJB_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/grid.h"
#include "numerics/time_field.h"

// Backward Hamilton–Jacobi–Bellman solver for the generic player (Eq. 20),
// content-batched: K independent contents (the lanes) run the backward
// sweep in lockstep over a structure-of-arrays [node][lane] state, so the
// per-node inner loops are unit-stride across lanes and vectorize. The
// scalar HjbSolver1D is the one-lane (K = 1) view of this solver.
//
//   ∂_t V + max_x [ Q_k(−w1 x − w2 Π + w3 ξ^L) ∂_q V + ½ ϱ_q² ∂²_qq V
//                   + U(t, x, q, λ) ] = 0,     V(T, ·) = 0,
//
// on the reduced 1-D cache-state domain (DESIGN.md §4), with the inner
// maximization in closed form (Theorem 1):
//
//   x*(t, q) = [ −( w4 + η₂ Q_k / H_c + Q_k w1 ∂_q V ) / (2 w5) ]₀¹
//
// Discretization: explicit backward Euler with automatic sub-stepping to
// satisfy the advection/diffusion CFL bound, upwind first derivatives
// (biased by the drift sign) and central second derivatives.
//
// Lane independence: lane l runs one fixed expression tree on lane-l data
// — no cross-lane arithmetic — so a lane's result does not depend on the
// batch width or on its neighbours (guarded by batch_equivalence_test,
// solver_equivalence_test's goldens and the epoch goldens). Two identities
// make the batch layout cheap:
//
//  * The case probabilities are separable, p1 = f(αQ − q_i),
//    p2/p3 = f(q_i − αQ)·f(±(peer_n − αQ)). The q-only factors are
//    time-invariant and tabulated per (node, lane) at BindLane; the
//    peer-only factors are two logistics per (time node, lane). The fold
//    loop then carries no exp() at all, and reusing an identical
//    subexpression cannot change its bits.
//  * Per-lane CFL substep counts may differ (content size enters dx and
//    the drift bound); lanes whose substeps are exhausted keep computing
//    harmlessly but their value update is masked out by a per-lane select,
//    never by multiply-by-zero (NaN·0 would poison the lane).
//
// The sweep core (SweepInto) writes straight into the caller's
// [time][node][lane] value and policy fields, optionally folding Alg. 2's
// relaxed update and residual maxima into each node's tail — the batched
// learner keeps its whole iterate in that layout. The same sweep also
// evaluates a given policy (Fields::control): the control is read instead
// of maximized, which is how EvaluatePolicyValue computes the ε-Nash
// gap's V_x. SolveInto's per-lane LaneIo entry point is a gather →
// SweepInto → scatter adapter.
//
// Coupled mode (Fields::coupled) is how the 2-D (h, q) model runs on this
// solver: lane l is channel node h_l, and the OU h-terms are one
// cross-lane pass per substep around the unchanged fused q-substep (see
// numerics::LaneAxis). It is the one place lanes exchange data, outside
// the lane-independence contract below; the epoch planner never sets it.
//
// A lane that diverges (non-finite value surface) is recorded in its
// status and drops out of the batch; the remaining lanes are unaffected.
// A failed lane's output is unspecified. BatchBestResponseLearner reports
// such lanes to the epoch path's recovery ladder (mfg_cp.cc).

namespace mfg::core {

// V and x* tabulated on the (time, q) product grid. Index [n][i] is time
// node t_n = n·dt (n = 0..num_time_steps) and q node i; rows are spans
// over flat row-major storage.
struct HjbSolution {
  numerics::Grid1D q_grid;
  double dt = 0.0;
  numerics::TimeField2D value;   // V(t_n, q_i).
  numerics::TimeField2D policy;  // x*(t_n, q_i).

  std::size_t num_time_nodes() const { return value.size(); }
};

class HjbBatchSolver {
 public:
  // SoA scratch sized (nq x lanes); Assign() reuse keeps repeated solves
  // allocation-free (allocs_per_epoch=0).
  struct Workspace {
    // The running value surface of the backward sweep. The substep loop is
    // a single fused pass (see FusedHjbSubstep in the .cc): gradient,
    // control, drift, upwind and second derivative live in registers, and
    // each node's tail (EmitNode) writes its value and policy rows straight
    // into the caller's [time][node][lane] fields.
    numerics::BatchField v;
    // Per-(node, lane) fold of every control-independent utility term
    // (trading income, sharing benefit, η₂·request-service delay, sharing
    // cost), recomputed once per time node — the substep loop streams this
    // one table.
    numerics::BatchField base;
    // Per-lane scratch as one [field][lane] table (one allocation): the
    // per-time-node folds, the substep mask and the divergence latch (rows
    // listed in the .cc).
    numerics::BatchField lane;
    // SweepInto's per-lane error for every lane it drops.
    std::vector<common::Status> status;
    // Coupled mode only: the substep's [node][lane] h-term increment.
    numerics::BatchField coupled;
    // LaneIo adapter only: the gathered [time][lane] mean field, the lanes
    // it runs, and the [time][node][lane] output fields it scatters.
    std::vector<MeanFieldQuantities> io_mean_field;
    std::vector<std::uint8_t> io_alive;
    numerics::BatchField io_value;
    numerics::BatchField io_policy;
  };

  // Per-lane solve IO. Inactive lanes are skipped entirely (their solution
  // pointer may be null); an active lane's status reports the error its
  // one-lane solve returns.
  struct LaneIo {
    const std::vector<MeanFieldQuantities>* mean_field = nullptr;
    HjbSolution* solution = nullptr;
    bool active = false;
    common::Status status;
  };

  // The sweep's batch-resident output: [time][node][lane] fields of
  // (nt + 1)·nq·lanes doubles, node i of lane l at time node n stored at
  // [(n·nq + i)·lanes + l].
  struct Fields {
    double* value = nullptr;
    double* policy = nullptr;
    // Relaxed mode (Alg. 2, line 6) when non-null, one γ per lane: on
    // entry `policy` holds the previous iterate p and `value` the previous
    // surface (all +0.0 before the first iteration). Each node then writes
    // p' = (1 − γ)·p + γ·x* instead of x*, and folds max|p' − p| and
    // max|V − V_prev| into policy_change[l] / value_change[l], which the
    // caller starts at +0.0.
    const double* gamma = nullptr;
    double* policy_change = nullptr;
    double* value_change = nullptr;
    // Fixed-control (policy evaluation) mode when non-null, exclusive with
    // `gamma`: a [time][node][lane] policy field x. The step from t_{n+1}
    // to t_n plays row n of it in place of Theorem 1's control (the FPK's
    // convention), so the sweep solves the linear backward equation
    //   ∂_t V + b(x, q) ∂_q V + ½ϱ_q² ∂²_qq V + U(x, q) = 0,  V(T) = 0,
    // and writes only `value`; `policy` is not touched and may be null.
    const double* control = nullptr;
    // Coupled (h, q) mode when non-null: the lanes are the nodes of this
    // axis (the channel h). Every lane takes its substep count and dt_sub,
    // and each substep adds, from the pre-substep surface, dt_sub times
    // the upwind drift[l]·∂_h V plus diffusion·∂²_hh V (each end lane
    // copies its inner neighbour's curvature). Combines with either tail
    // above. A lane that fails takes every lane down with it, and the
    // sweep counts no per-lane core.hjb.* work.
    const numerics::LaneAxis* coupled = nullptr;
  };

  HjbBatchSolver() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // SolveInto. Keeps table capacity across calls.
  void Reset(std::size_t num_lanes);

  // Validates `params` and tabulates lane `lane` (the per-lane Rebind).
  // All bound lanes must share the grid
  // shape (num_q_nodes / num_time_steps) — the epoch path guarantees this
  // since every content derives from the same base_params.
  common::Status BindLane(std::size_t lane, const MfgParams& params);

  std::size_t num_lanes() const { return num_lanes_; }

  // Runs the backward sweep for every active lane. lanes.size() must equal
  // num_lanes(). Statuses are written per lane; the call itself cannot
  // fail globally. An adapter over SweepInto: gathers the mean field into
  // batch layout, sweeps, and scatters each live lane's rows.
  void SolveInto(std::span<LaneIo> lanes, Workspace& ws) const;

  // The sweep itself, on a [time][lane] mean field (entry n·lanes + l).
  // Runs the lanes with alive[l] != 0; a lane that fails gets alive[l]
  // cleared and its error in ws.status[l]. Every lane's columns of `out`
  // may be written; only the live lanes' hold the solution.
  void SweepInto(std::span<const MeanFieldQuantities> mean_field,
                 const Fields& out, std::span<std::uint8_t> alive,
                 Workspace& ws) const;

  // Copies lane `lane`'s columns of [time][node][lane] value and policy
  // fields into `out` (grid, dt and both surfaces); allocation-free once
  // `out` has had the shape.
  void WriteLaneInto(std::size_t lane, const double* value,
                     const double* policy, HjbSolution& out) const;

 private:
  std::size_t num_lanes_ = 0;
  std::size_t bound_lanes_ = 0;
  std::size_t nq_ = 0;
  std::size_t nt_ = 0;

  std::vector<MfgParams> params_;
  std::vector<numerics::Grid1D> grids_;

  // Per-(node, lane) tables, [node][lane] layout.
  numerics::BatchField q_coords_;
  numerics::BatchField avail_;
  numerics::BatchField p1_;          // f(αQ − q_i): the case-1 probability.
  numerics::BatchField fq_gt_;       // f(q_i − αQ): shared factor of p2/p3.
  numerics::BatchField served_own_;  // max(Q − q_i, 0).
  numerics::BatchField q_pos_;       // max(q_i, 0).
  numerics::BatchField cs_nw_;       // Q_k·(−w1)·a(q_i): drift x-gain.
  // Per-(time node, lane) drift offset Q_k·(w2·Π(t_n) − w3·ξ^L(t_n)),
  // [node][lane] layout over nodes 0..nt−1.
  numerics::BatchField cs_rd_;

  // Per-lane constants.
  std::vector<double> opt_k1_;
  std::vector<double> opt_k2_;
  std::vector<double> content_size_;
  std::vector<double> edge_rate_;
  std::vector<double> cloud_rate_;
  std::vector<double> ondemand_rate_;
  std::vector<double> eta2_;
  std::vector<double> w4_;
  std::vector<double> w5_;
  std::vector<double> sharing_price_;
  std::vector<double> threshold_;   // αQ.
  std::vector<double> sharpness_;   // Logistic steepness.
  std::vector<double> dt_;
  std::vector<double> dt_sub_;
  std::vector<double> diffusion_;
  std::vector<std::size_t> substeps_;
  std::vector<std::uint8_t> sharing_;
  // Per-lane reciprocals of the per-element divisors, hoisted to bind time
  // (the substep loops are division-throughput-bound otherwise).
  std::vector<double> inv_2w5_;        // 1 / (2 w5).
  std::vector<double> k_delay_;        // η₂ Q_k / H_c (staleness x-gain).
  std::vector<double> inv_edge_;       // 1 / r_edge.
  std::vector<double> inv_ond_;        // 1 / H_od.
  std::vector<double> inv_dx_;         // 1 / dx.
  std::vector<double> inv_2dx_;        // 1 / (2 dx).
  std::vector<double> inv_dx2_;        // 1 / dx².
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_HJB_BATCH_H_
