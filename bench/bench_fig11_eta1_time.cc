// Fig. 11 reproduction: impact of the supply-to-money conversion η₁ on
// the EDP's utility and trading income over time. Paper's observations:
// the utility gradually increases over the epoch while the trading income
// decreases (once EDPs have cached enough, trading activity cools), and a
// larger η₁ yields a smaller utility and lower trading income (the price
// falls faster with supply, Eq. 5/17). The paper's η₁ sweep is
// {0.1..0.4}·1e-6 in per-byte units; ours is {0.01..0.04} per MB.

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Fig. 11", "eta1 sweep over time");
  const std::vector<double> eta1s = {0.01, 0.02, 0.03, 0.04};

  std::vector<core::EquilibriumRollout> rollouts;
  for (double eta1 : eta1s) {
    core::MfgParams params = bench::SolverParams(config);
    params.pricing.eta1 = eta1;
    core::Equilibrium eq = bench::Solve(params);
    auto rollout = core::RolloutEquilibrium(params, eq, 70.0);
    MFG_CHECK(rollout.ok()) << rollout.status();
    rollouts.push_back(std::move(rollout).value());
  }
  const std::size_t n_points = rollouts[0].time.size();

  bench::Section("(a) cumulative utility over time");
  common::TextTable utility({"t", "eta1=0.1", "eta1=0.2", "eta1=0.3",
                             "eta1=0.4"});
  for (std::size_t i = 0; i < n_points; i += (n_points - 1) / 10) {
    utility.AddNumericRow({rollouts[0].time[i],
                           rollouts[0].cumulative_utility[i],
                           rollouts[1].cumulative_utility[i],
                           rollouts[2].cumulative_utility[i],
                           rollouts[3].cumulative_utility[i]});
  }
  bench::Emit(config, "fig11_eta1_time_utility", utility);

  bench::Section("(b) instantaneous trading income over time");
  common::TextTable income({"t", "eta1=0.1", "eta1=0.2", "eta1=0.3",
                            "eta1=0.4"});
  for (std::size_t i = 0; i < n_points; i += (n_points - 1) / 10) {
    income.AddNumericRow({rollouts[0].time[i],
                          rollouts[0].trading_income[i],
                          rollouts[1].trading_income[i],
                          rollouts[2].trading_income[i],
                          rollouts[3].trading_income[i]});
  }
  bench::Emit(config, "fig11_eta1_time_income", income);
  std::printf(
      "\nExpected shape: cumulative utility rises over time; larger eta1 "
      "gives lower utility and lower trading income at every time "
      "(column order preserved). Legend labels use the paper's 1e-6 "
      "nominal values.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
