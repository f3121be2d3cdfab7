// Fig. 14 reproduction: utility and trading income of an EDP under the
// five schemes at the default operating point (bar chart in the paper).
// Headline numbers from the paper: MFG-CP's utility is 2.76x MPC's and
// 1.57x UDCS's, the trading income gap between MFG-CP and MFG is small,
// and MFG-CP's staleness cost is lower than MFG's.

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Fig. 14", "scheme comparison at the default setting");
  core::MfgParams params = bench::SolverParams(config);
  sim::SimulatorOptions options = bench::SimOptions(config, params);
  auto simulator = sim::Simulator::Create(options);
  MFG_CHECK(simulator.ok()) << simulator.status();

  core::MfgParams solve_params = params;
  solve_params.num_requests = simulator->ImpliedRequestsPerEdpContent(
      1.0 / static_cast<double>(options.num_contents));
  core::Equilibrium eq = bench::Solve(solve_params);
  auto mfgcp =
      bench::MfgScheme(solve_params, eq, options.num_contents, "MFG-CP");

  sim::SimulatorOptions no_share_options = options;
  no_share_options.base_params.sharing_enabled = false;
  auto no_share_sim = sim::Simulator::Create(no_share_options);
  MFG_CHECK(no_share_sim.ok()) << no_share_sim.status();
  core::MfgParams mfg_params = baselines::DisableSharing(solve_params);
  core::Equilibrium mfg_eq = bench::Solve(mfg_params);
  auto mfg =
      bench::MfgScheme(mfg_params, mfg_eq, options.num_contents, "MFG");

  auto run = [&](sim::Simulator& s, const sim::SchemePolicies& scheme) {
    auto result = s.Run(scheme);
    MFG_CHECK(result.ok()) << result.status();
    return std::move(result).value();
  };
  std::vector<sim::SimulationResult> results;
  results.push_back(run(*simulator, mfgcp));
  results.push_back(run(*no_share_sim, mfg));
  results.push_back(run(*simulator,
                        sim::UniformScheme("UDCS", baselines::MakeUdcs(),
                                           options.num_contents)));
  results.push_back(run(*simulator, sim::UniformScheme(
                                        "MPC", baselines::MakeMostPopular(),
                                        options.num_contents)));
  results.push_back(
      run(*simulator, sim::UniformScheme("RR",
                                         baselines::MakeRandomReplacement(),
                                         options.num_contents)));

  common::TextTable table({"scheme", "utility", "trading income",
                           "staleness cost", "sharing benefit",
                           "hit ratio", "utility stddev", "Jain index"});
  for (const auto& r : results) {
    table.AddRow({r.scheme, common::FormatDouble(r.MeanUtility(), 5),
                  common::FormatDouble(r.MeanTradingIncome(), 5),
                  common::FormatDouble(r.MeanStalenessCost(), 5),
                  common::FormatDouble(r.MeanSharingBenefit(), 4),
                  common::FormatDouble(r.HitRatio(), 3),
                  common::FormatDouble(r.UtilityStdDev(), 4),
                  common::FormatDouble(r.JainFairnessIndex(), 3)});
  }
  bench::Emit(config, "fig14_scheme_bars_table", table);

  const double mfgcp_u = results[0].MeanUtility();
  std::printf("\nutility ratios: MFG-CP / MPC = %.2fx (paper: 2.76x), "
              "MFG-CP / UDCS = %.2fx (paper: 1.57x)\n",
              mfgcp_u / results[3].MeanUtility(),
              mfgcp_u / results[2].MeanUtility());
  std::printf(
      "Expected shape: MFG-CP highest utility; MFG income >= MFG-CP "
      "income but MFG staleness > MFG-CP staleness.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
