// Fig. 12 reproduction: total utility and total trading income of an EDP
// versus η₁, for all five schemes, measured in the explicit multi-agent
// market simulator. Paper's observations: (i) total utility falls as η₁
// rises for every scheme; (ii) MFG-CP's utility dominates MFG, UDCS, MPC
// and RR; (iii) MFG (no sharing) earns slightly *more* trading income
// than MFG-CP (it sells whole contents after cloud top-ups) but pays a
// higher staleness cost.

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Fig. 12", "total utility / trading income vs eta1");
  const std::vector<double> eta1s = {0.01, 0.02, 0.03, 0.04};
  const std::vector<std::string> paper_labels = {"0.1", "0.2", "0.3",
                                                 "0.4"};

  common::TextTable utility({"eta1 (paper 1e-6)", "MFG-CP", "MFG", "UDCS",
                             "MPC", "RR"});
  common::TextTable income({"eta1 (paper 1e-6)", "MFG-CP", "MFG", "UDCS",
                            "MPC", "RR"});
  for (std::size_t v = 0; v < eta1s.size(); ++v) {
    core::MfgParams params = bench::SolverParams(config);
    params.pricing.eta1 = eta1s[v];
    sim::SimulatorOptions options = bench::SimOptions(config, params);
    auto simulator = sim::Simulator::Create(options);
    MFG_CHECK(simulator.ok()) << simulator.status();

    core::MfgParams solve_params = params;
    solve_params.num_requests = simulator->ImpliedRequestsPerEdpContent(
        1.0 / static_cast<double>(options.num_contents));
    core::Equilibrium eq = bench::Solve(solve_params);
    auto mfgcp = bench::MfgScheme(solve_params, eq, options.num_contents,
                                  "MFG-CP");

    // The MFG baseline plays its own no-sharing equilibrium in a
    // no-sharing market.
    sim::SimulatorOptions no_share_options = options;
    no_share_options.base_params.sharing_enabled = false;
    auto no_share_sim = sim::Simulator::Create(no_share_options);
    MFG_CHECK(no_share_sim.ok()) << no_share_sim.status();
    core::MfgParams mfg_params =
        baselines::DisableSharing(solve_params);
    core::Equilibrium mfg_eq = bench::Solve(mfg_params);
    auto mfg = bench::MfgScheme(mfg_params, mfg_eq, options.num_contents,
                                "MFG");

    auto run = [&](sim::Simulator& s, const sim::SchemePolicies& scheme) {
      auto result = s.Run(scheme);
      MFG_CHECK(result.ok()) << result.status();
      return std::move(result).value();
    };
    auto r_mfgcp = run(*simulator, mfgcp);
    auto r_mfg = run(*no_share_sim, mfg);
    auto r_udcs = run(*simulator,
                      sim::UniformScheme("UDCS", baselines::MakeUdcs(),
                                         options.num_contents));
    auto r_mpc = run(*simulator,
                     sim::UniformScheme("MPC", baselines::MakeMostPopular(),
                                        options.num_contents));
    auto r_rr = run(*simulator, sim::UniformScheme(
                                    "RR", baselines::MakeRandomReplacement(),
                                    options.num_contents));

    utility.AddNumericRow({eta1s[v] * 10.0, r_mfgcp.MeanUtility(),
                           r_mfg.MeanUtility(), r_udcs.MeanUtility(),
                           r_mpc.MeanUtility(), r_rr.MeanUtility()});
    income.AddNumericRow({eta1s[v] * 10.0, r_mfgcp.MeanTradingIncome(),
                          r_mfg.MeanTradingIncome(),
                          r_udcs.MeanTradingIncome(),
                          r_mpc.MeanTradingIncome(),
                          r_rr.MeanTradingIncome()});
  }

  bench::Section("(a) total utility per EDP");
  bench::Emit(config, "fig12_total_vs_eta1_utility", utility);
  bench::Section("(b) total trading income per EDP");
  bench::Emit(config, "fig12_total_vs_eta1_income", income);
  std::printf(
      "\nExpected shape: utility decreases with eta1 for every scheme; "
      "MFG-CP tops the utility table; MFG's trading income >= MFG-CP's.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
