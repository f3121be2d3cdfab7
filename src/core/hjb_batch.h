#ifndef MFGCP_CORE_HJB_BATCH_H_
#define MFGCP_CORE_HJB_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/hjb_solver.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"
#include "numerics/batch_field.h"
#include "numerics/grid.h"

// Content-batched counterpart of HjbSolver1D: K independent contents (the
// lanes) run the backward sweep in lockstep over a structure-of-arrays
// [node][lane] state, so the per-node inner loops are unit-stride across
// lanes and vectorize.
//
// Bit-identity contract: lane l executes the exact scalar expression tree
// of HjbSolver1D::SolveInto on lane-l data — same operations, same order,
// no cross-lane arithmetic — so an active lane's HjbSolution is bitwise
// equal to the scalar solver's (guarded by batch_equivalence_test and the
// epoch goldens). Two scalar-side identities make the batch layout cheap:
//
//  * The case probabilities are separable, p1 = f(αQ − q_i),
//    p2/p3 = f(q_i − αQ)·f(±(peer_n − αQ)). The q-only factors are
//    time-invariant and tabulated per (node, lane) at BindLane; the
//    peer-only factors are two logistics per (time node, lane). The fold
//    loop that dominated the scalar profile then carries no exp() at all,
//    and reusing an identical subexpression cannot change its bits.
//  * Per-lane CFL substep counts may differ (content size enters dx and
//    the drift bound); lanes whose substeps are exhausted keep computing
//    harmlessly but their value update is masked out by a per-lane select,
//    never by multiply-by-zero (NaN·0 would poison the lane).
//
// The sweep core (SweepInto) writes straight into the caller's
// [time][node][lane] value and policy fields, optionally folding Alg. 2's
// relaxed update and residual maxima into each node's tail — the batched
// learner keeps its whole iterate in that layout. SolveInto's per-lane
// LaneIo entry point is an adapter over the same core.
//
// A lane that diverges (non-finite value surface, exactly the scalar
// check) is recorded in its status and drops out of the batch; the
// remaining lanes are unaffected. A failed lane's output is unspecified.
// The caller (BatchBestResponseLearner) routes such lanes onto the scalar
// recovery ladder.

namespace mfg::core {

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
    // one table (see HjbSolver1D::Workspace::base).
    numerics::BatchField base;
    // Per-lane per-time-node folds (length lanes). The sharing toggle is
    // pre-folded into three factors so the node loop carries no branch:
    // p2 = fq·p2_factor, p3 = fq·fpeer_gt + fq·p2_extra, and the sharing
    // cost multiplies gated_share_price. Each gated factor is 0.0 on the
    // disabled side, and every gated multiplicand is finite and
    // non-negative, so the products reproduce the scalar branches' bits.
    std::vector<double> p2_factor;    // sharing ? f(αQ − peer_n) : 0.
    std::vector<double> fpeer_gt;     // f(peer_n − αQ).
    std::vector<double> p2_extra;     // sharing ? 0 : f(αQ − peer_n).
    std::vector<double> gated_share_price;  // sharing ? sharing_price : 0.
    std::vector<double> share_n;
    std::vector<double> served_peer;
    std::vector<double> num_requests;
    std::vector<double> price;
    std::vector<double> peer;
    // Per-substep value-update mask and per-lane divergence accumulator,
    // kept as doubles (0.0 / nonzero): double-wide select masks vectorize
    // where a byte-mask blend against double data does not.
    std::vector<double> update;
    std::vector<double> bad;
    // Rotation scratch for the runtime-lane-count fused substep (three old
    // value rows plus the carried d²v row, 4·lanes doubles); the
    // compile-time lane specializations keep these in registers instead.
    std::vector<double> rot;
    // SweepInto's per-lane error for every lane it drops.
    std::vector<common::Status> status;
    // LaneIo adapter only: the gathered [time][lane] mean field, the lanes
    // it runs, and the [time][node][lane] output fields it scatters.
    std::vector<MeanFieldQuantities> io_mean_field;
    std::vector<std::uint8_t> io_alive;
    numerics::BatchField io_value;
    numerics::BatchField io_policy;
  };

  // Per-lane solve IO. Inactive lanes are skipped entirely (their solution
  // pointer may be null); an active lane's status reports the same error
  // the scalar solver would have returned.
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
  };

  HjbBatchSolver() = default;

  // Declares the batch width; lanes [0, num_lanes) must be bound before
  // SolveInto. Keeps table capacity across calls.
  void Reset(std::size_t num_lanes);

  // Validates `params` and tabulates lane `lane`, replicating
  // HjbSolver1D::Rebind for that lane. All bound lanes must share the grid
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
  numerics::BatchField neg_w1_avail_;
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
  std::vector<double> dx_;
  std::vector<double> dt_;
  std::vector<double> dt_sub_;
  std::vector<double> diffusion_;
  std::vector<std::size_t> substeps_;
  std::vector<std::uint8_t> sharing_;
  // Per-lane reciprocals of the per-element divisors, the same expressions
  // HjbSolver1D::InitTables and the scalar FD kernels hoist (the substep
  // loops are division-throughput-bound otherwise; identical expressions
  // keep bit-identity).
  std::vector<double> inv_2w5_;        // 1 / (2 w5).
  std::vector<double> cs_over_cloud_;  // Q_k / H_c.
  std::vector<double> k_delay_;        // η₂ Q_k / H_c (staleness x-gain).
  std::vector<double> inv_edge_;       // 1 / r_edge.
  std::vector<double> inv_ond_;        // 1 / H_od.
  std::vector<double> inv_dx_;         // 1 / dx.
  std::vector<double> inv_2dx_;        // 1 / (2 dx).
  std::vector<double> inv_dx2_;        // 1 / dx².
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_HJB_BATCH_H_
