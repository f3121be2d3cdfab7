// Fig. 9 reproduction: convergence of the caching state and the utility
// of a single EDP from different initial caching states q(0) in [30, 90].
// Paper's observations: the trajectory with the largest q(0) starts with
// the lowest utility (it must spend more effort caching), and both the
// remaining space and the utility stabilize — the EDP reaches an
// equilibrium state. We also print Alg. 2's fixed-point iteration trace.

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Fig. 9", "convergence from different initial states");
  core::MfgParams params = bench::SolverParams(config);
  core::Equilibrium eq = bench::Solve(params);

  bench::Section("Alg. 2 iteration trace (max policy/value change per sweep)");
  common::TextTable trace(
      {"iteration", "max |x_psi - x_psi-1|", "max |V_psi - V_psi-1|"});
  for (std::size_t i = 0; i < eq.policy_change_history.size(); ++i) {
    trace.AddNumericRow({static_cast<double>(i + 1),
                         eq.policy_change_history[i],
                         eq.value_change_history[i]});
  }
  bench::Emit(config, "fig09_convergence_trace", trace);
  std::printf("converged: %s\n", eq.converged ? "yes" : "no");

  const std::vector<double> starts = {30.0, 50.0, 70.0, 90.0};
  std::vector<core::EquilibriumRollout> rollouts;
  for (double q0 : starts) {
    auto rollout = core::RolloutEquilibrium(params, eq, q0);
    MFG_CHECK(rollout.ok()) << rollout.status();
    rollouts.push_back(std::move(rollout).value());
  }
  const std::size_t n_points = rollouts[0].time.size();

  bench::Section("(a) remaining cache state q(t) per start");
  common::TextTable state({"t", "q0=30", "q0=50", "q0=70", "q0=90"});
  for (std::size_t i = 0; i < n_points; i += (n_points - 1) / 10) {
    state.AddNumericRow({rollouts[0].time[i], rollouts[0].cache_state[i],
                         rollouts[1].cache_state[i],
                         rollouts[2].cache_state[i],
                         rollouts[3].cache_state[i]});
  }
  bench::Emit(config, "fig09_convergence_state", state);

  bench::Section("(b) instantaneous utility per start");
  common::TextTable utility({"t", "q0=30", "q0=50", "q0=70", "q0=90"});
  for (std::size_t i = 0; i < n_points; i += (n_points - 1) / 10) {
    utility.AddNumericRow({rollouts[0].time[i], rollouts[0].utility[i],
                           rollouts[1].utility[i], rollouts[2].utility[i],
                           rollouts[3].utility[i]});
  }
  bench::Emit(config, "fig09_convergence_utility", utility);
  std::printf(
      "\nExpected shape: the q0=90 trajectory starts with the lowest "
      "utility; all trajectories approach a common band by t = T "
      "(equilibrium reached).\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
