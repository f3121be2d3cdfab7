#include "core/finite_game.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "common/math_util.h"
#include "core/hjb_solver.h"
#include "core/mean_field_estimator.h"
#include "econ/pricing.h"
#include "econ/utility.h"
#include "numerics/interpolation.h"
#include "obs/obs.h"

namespace mfg::core {
namespace {

// Empirical counterparts of the mean-field estimator's quantities, built
// from the *other* players' states at one time node.
MeanFieldQuantities EmpiricalQuantities(
    const MfgParams& params, const econ::PricingModel& pricing,
    const std::vector<double>& remainings_all, std::size_t self) {
  MeanFieldQuantities mf;
  mf.price =
      pricing.FiniteMarketPrice(remainings_all, self, params.content_size)
          .value();

  const std::size_t m = remainings_all.size();
  if (m <= 1) {
    // Monopoly: no peers to share with.
    mf.mean_peer_remaining = params.content_size;
    return mf;
  }
  const double threshold = params.case_alpha * params.content_size;
  double sum = 0.0;
  double sharer_moment = 0.0;
  double needer_moment = 0.0;
  std::size_t sharers = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (j == self) continue;
    const double q = remainings_all[j];
    sum += q;
    if (q <= threshold) {
      sharer_moment += q;
      ++sharers;
    } else {
      needer_moment += q;
    }
  }
  const double others = static_cast<double>(m - 1);
  mf.mean_peer_remaining = sum / others;
  mf.sharer_fraction = static_cast<double>(sharers) / others;
  mf.delta_q = std::fabs(sharer_moment - needer_moment) / others;
  SetSharingTerms(params.utility.sharing_price, params.sharing_enabled, mf);
  return mf;
}

}  // namespace

std::vector<double> FiniteGameResult::MeanTrajectory() const {
  if (trajectories.empty()) return {};
  std::vector<double> mean(trajectories[0].size(), 0.0);
  for (const auto& traj : trajectories) {
    for (std::size_t n = 0; n < traj.size(); ++n) mean[n] += traj[n];
  }
  for (double& v : mean) v /= static_cast<double>(trajectories.size());
  return mean;
}

std::vector<double> FiniteGameResult::MeanPolicy() const {
  if (policies.empty()) return {};
  std::vector<double> mean(policies[0].size(), 0.0);
  for (const auto& pol : policies) {
    for (std::size_t n = 0; n < pol.size(); ++n) mean[n] += pol[n];
  }
  for (double& v : mean) v /= static_cast<double>(policies.size());
  return mean;
}

double FiniteGameResult::MeanUtility() const {
  if (utilities.empty()) return 0.0;
  double sum = 0.0;
  for (double u : utilities) sum += u;
  return sum / static_cast<double>(utilities.size());
}

common::StatusOr<FiniteGameSolver> FiniteGameSolver::Create(
    const FiniteGameOptions& options) {
  if (options.num_players == 0) {
    return common::Status::InvalidArgument("need at least one player");
  }
  MFG_RETURN_IF_ERROR(options.params.Validate());
  if (!options.initial_remaining.empty() &&
      options.initial_remaining.size() != options.num_players) {
    return common::Status::InvalidArgument(
        "initial_remaining must have one entry per player");
  }
  for (double q : options.initial_remaining) {
    if (q < 0.0 || q > options.params.content_size) {
      return common::Status::InvalidArgument(
          "initial remaining out of [0, Q_k]");
    }
  }
  if (options.max_rounds == 0 || options.tolerance <= 0.0 ||
      options.relaxation <= 0.0 || options.relaxation > 1.0) {
    return common::Status::InvalidArgument(
        "bad best-response iteration controls");
  }
  return FiniteGameSolver(options);
}

common::StatusOr<FiniteGameResult> FiniteGameSolver::Solve() const {
  MFG_OBS_SPAN_ID("FiniteGame.Solve",
                  static_cast<std::int64_t>(options_.num_players));
  MFG_OBS_SCOPED_TIMER("core.finite_game.seconds");
  MFG_OBS_COUNT("core.finite_game.solves", 1);
  const MfgParams& params = options_.params;
  const std::size_t m = options_.num_players;
  const std::size_t nt = params.grid.num_time_steps;
  const double dt = params.TimeStep();
  MFG_ASSIGN_OR_RETURN(numerics::Grid1D q_grid, params.MakeQGrid());
  MFG_ASSIGN_OR_RETURN(HjbSolver1D hjb, HjbSolver1D::Create(params));
  MFG_ASSIGN_OR_RETURN(econ::PricingModel pricing,
                       econ::PricingModel::Create(params.pricing));
  MFG_ASSIGN_OR_RETURN(econ::CaseModel case_model, params.MakeCaseModel());

  // Initial states: given, or evenly spread around the initial mean.
  std::vector<double> initial = options_.initial_remaining;
  if (initial.empty()) {
    initial.resize(m);
    const double mean = params.init_mean_frac * params.content_size;
    const double spread = params.init_std_frac * params.content_size;
    for (std::size_t i = 0; i < m; ++i) {
      const double u =
          m == 1 ? 0.0
                 : 2.0 * static_cast<double>(i) /
                           static_cast<double>(m - 1) -
                       1.0;
      initial[i] =
          common::Clamp(mean + u * spread, 0.0, params.content_size);
    }
  }

  FiniteGameResult result;
  result.trajectories.assign(m, std::vector<double>(nt + 1));
  result.policies.assign(m, std::vector<double>(nt + 1, 0.0));
  // Seed trajectories: everyone coasts at their initial state.
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(result.trajectories[i].begin(), result.trajectories[i].end(),
              initial[i]);
  }

  std::vector<double> remainings(m);
  for (std::size_t round = 1; round <= options_.max_rounds; ++round) {
    result.rounds = round;
    double max_change = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      // Opponent-dependent quantities along the current trajectories.
      std::vector<MeanFieldQuantities> mf(nt + 1);
      for (std::size_t n = 0; n <= nt; ++n) {
        for (std::size_t j = 0; j < m; ++j) {
          remainings[j] = result.trajectories[j][n];
        }
        mf[n] = EmpiricalQuantities(params, pricing, remainings, i);
      }
      MFG_ASSIGN_OR_RETURN(HjbSolution best, hjb.Solve(mf));

      // Deterministic rollout of player i's best response.
      std::vector<double> new_traj(nt + 1);
      std::vector<double> new_policy(nt + 1, 0.0);
      double q = initial[i];
      for (std::size_t n = 0; n <= nt; ++n) {
        new_traj[n] = q;
        MFG_ASSIGN_OR_RETURN(
            double x,
            numerics::LinearInterpolate(q_grid, best.policy[n], q));
        new_policy[n] = x;
        if (n < nt) {
          q = common::Clamp(q + params.CacheDriftAt(x, q) * dt, 0.0,
                            params.content_size);
        }
      }
      // Damped (Gauss–Seidel) trajectory update.
      for (std::size_t n = 0; n <= nt; ++n) {
        const double updated = common::Lerp(result.trajectories[i][n],
                                            new_traj[n],
                                            options_.relaxation);
        max_change =
            std::max(max_change,
                     std::fabs(updated - result.trajectories[i][n]));
        result.trajectories[i][n] = updated;
      }
      result.policies[i] = new_policy;
    }
    if (max_change < options_.tolerance) {
      result.converged = true;
      break;
    }
  }
  MFG_OBS_OBSERVE_COUNTS("core.finite_game.rounds",
                         static_cast<double>(result.rounds));

  // Final accounting along the converged trajectories.
  result.utilities.assign(m, 0.0);
  result.price_of_player0.assign(nt + 1, 0.0);
  for (std::size_t n = 0; n <= nt; ++n) {
    for (std::size_t j = 0; j < m; ++j) {
      remainings[j] = result.trajectories[j][n];
    }
    for (std::size_t i = 0; i < m; ++i) {
      const MeanFieldQuantities mf =
          EmpiricalQuantities(params, pricing, remainings, i);
      if (i == 0) result.price_of_player0[n] = mf.price;
      econ::UtilityInputs in;
      in.content_size = params.content_size;
      in.caching_rate = result.policies[i][n];
      in.own_remaining = remainings[i];
      in.peer_remaining = mf.mean_peer_remaining;
      in.num_requests = params.num_requests;
      in.price = mf.price;
      in.edge_rate = params.edge_rate;
      in.sharing_benefit = mf.sharing_benefit;
      in.download_scale = params.ControlAvailability(remainings[i]);
      in.cases = case_model.Evaluate(remainings[i],
                                     mf.mean_peer_remaining,
                                     params.content_size);
      in.sharing_enabled = params.sharing_enabled;
      MFG_ASSIGN_OR_RETURN(econ::UtilityBreakdown u,
                           econ::EvaluateUtility(params.utility, in));
      result.utilities[i] += u.total * dt;
    }
  }
  return result;
}

}  // namespace mfg::core
