#ifndef MFGCP_CORE_BEST_RESPONSE_2D_H_
#define MFGCP_CORE_BEST_RESPONSE_2D_H_

#include <vector>

#include "common/status.h"
#include "core/fpk_solver_2d.h"
#include "core/hjb_solver_2d.h"
#include "core/mean_field_estimator.h"
#include "core/mfg_params.h"

// Iterative best-response learning (Algorithm 2) over the full 2-D (h, q)
// state space. Identical fixed-point structure to the reduced 1-D learner
// (best_response.h); the mean-field quantities are computed from the
// q-marginal of the joint density (price and sharing statistics only
// depend on the cache coordinate), while the HJB's running utility sees
// the full channel dependence through EdgeRateAt(h).
//
// The iterate stays batch-resident for the whole solve: policy, value and
// density are [time][q][h] BatchFields (h-node ih is lane ih of the 2-D
// solvers' coupled sweeps), the HJB sweep applies the relaxed update and
// folds both residuals in its tail (HjbBatchSolver::Fields::gamma), and
// the result is transposed to the public [time][h·q] layout once, at exit.
//
// Used to validate the 1-D reduction: with the calibrated channel
// (stationary std ≈ 0.05 around υ = 6) the 2-D equilibrium policy at
// h = υ matches the 1-D policy closely (tested; quantified by the
// `bench_ablation_2d` bench).

namespace mfg::core {

struct Equilibrium2D {
  Hjb2DSolution hjb;
  Fpk2DSolution fpk;
  std::vector<MeanFieldQuantities> mean_field;  // Per time node.
  std::size_t iterations = 0;
  bool converged = false;
  // Preallocated convergence trace; same semantics as Equilibrium's.
  std::vector<double> policy_change_history;
  std::vector<double> value_change_history;
};

class BestResponseLearner2D {
 public:
  static common::StatusOr<BestResponseLearner2D> Create(
      const MfgParams& params);

  // Runs Alg. 2 from the product initial density and a flat policy guess.
  common::StatusOr<Equilibrium2D> Solve(double initial_rate = 0.5) const;

  const MfgParams& params() const { return params_; }

 private:
  BestResponseLearner2D(const MfgParams& params, HjbSolver2D hjb,
                        FpkSolver2D fpk, MeanFieldBatchEstimator estimator)
      : params_(params),
        hjb_(std::move(hjb)),
        fpk_(std::move(fpk)),
        estimator_(std::move(estimator)) {}

  MfgParams params_;
  HjbSolver2D hjb_;
  FpkSolver2D fpk_;
  MeanFieldBatchEstimator estimator_;  // Bound at one lane.
};

}  // namespace mfg::core

#endif  // MFGCP_CORE_BEST_RESPONSE_2D_H_
