#ifndef MFGCP_CORE_EQUILIBRIUM_METRICS_H_
#define MFGCP_CORE_EQUILIBRIUM_METRICS_H_

#include <vector>

#include "common/status.h"
#include "core/best_response.h"
#include "core/mfg_params.h"

// Quantitative equilibrium diagnostics.
//
// The central one is the *exploitability* (Nash gap): with the population
// committed to the equilibrium pair (x, λ), how much can a single deviating
// EDP gain by best-responding against λ instead of playing x?
//
//   gap = ∫ λ(0, q) [ V_BR(0, q) − V_x(0, q) ] dq
//
// where V_BR solves the HJB (maximizing) against the equilibrium's
// mean-field quantities, and V_x solves the *linear* backward equation
// under the fixed population policy x. At an exact mean-field equilibrium
// the gap is zero (Definition 3); the converged iterate's gap measures how
// close Alg. 2 got — the empirical counterpart of Theorem 2.

namespace mfg::core {

// Value of *playing the given policy* against the given mean-field
// quantities: the backward linear PDE
//   ∂_t V + b(x(t,q), q) ∂_q V + ½ϱ_q² ∂²_qq V + U(x(t,q), q) = 0,
// V(T) = 0: one HjbBatchSolver sweep in fixed-control mode
// (HjbBatchSolver::Fields::control), so V_x and V_BR share one
// discretization and one kernel. The step from t_{n+1} to t_n plays
// policy[n]. Returns the value table V[t][q].
common::StatusOr<std::vector<std::vector<double>>> EvaluatePolicyValue(
    const MfgParams& params,
    const std::vector<MeanFieldQuantities>& mean_field,
    const std::vector<std::vector<double>>& policy);

struct ExploitabilityReport {
  double gap = 0.0;             // λ(0)-weighted mean of V_BR − V_x at t=0.
  double max_pointwise = 0.0;   // max_q (V_BR − V_x)(0, q).
  double best_response_value = 0.0;  // λ(0)-weighted V_BR(0, ·).
  double policy_value = 0.0;         // λ(0)-weighted V_x(0, ·).
  // Relative gap: gap / max(|best_response_value|, 1).
  double RelativeGap() const;
};

// Computes the exploitability of an equilibrium candidate produced by
// BestResponseLearner. The equilibrium's own mean-field quantities are
// held fixed (single deviator cannot move the population).
common::StatusOr<ExploitabilityReport> ComputeExploitability(
    const MfgParams& params, const Equilibrium& equilibrium);

// Exploitability of an arbitrary policy table against an equilibrium's
// population (used by tests to show bad policies have large gaps).
common::StatusOr<ExploitabilityReport> ComputeExploitabilityOfPolicy(
    const MfgParams& params, const Equilibrium& equilibrium,
    const std::vector<std::vector<double>>& policy);

// Mean-field consistency residual — the FPK fixed-point gap of Alg. 2:
// re-solves the forward FPK (Eq. 15) from the equilibrium's initial
// density under its *final* policy and returns the largest per-node L1
// distance max_n ∫ |λ_resolved(t_n) − λ(t_n)| dq. A converged candidate
// carries a small residual (its stored trajectory lags the final policy by
// at most one relaxation step); carry-forward/fallback products whose
// density never saw the shipped policy show a large one.
common::StatusOr<double> ComputeConsistencyResidual(
    const MfgParams& params, const Equilibrium& equilibrium);

}  // namespace mfg::core

#endif  // MFGCP_CORE_EQUILIBRIUM_METRICS_H_
