// Table II reproduction: decision computation time (seconds) versus the
// number of EDPs M, for MFG-CP, RR and MPC. The paper's point: MFG-CP's
// cost is the (M-independent) mean-field solve — it analyzes "the average
// characteristics of the entire population rather than individual EDPs" —
// while RR and MPC perform per-EDP work every epoch, so their time grows
// linearly with M. Absolute seconds depend on hardware; the *shape*
// (flat vs. growing columns) is the reproduced result.

#include <chrono>

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Table II", "computation time vs number of EDPs");
  const std::vector<std::size_t> ms = {50, 100, 200, 300};

  common::TextTable table(
      {"M", "MFG-CP solve (s)", "MFG-CP decide (s)", "RR decide (s)",
       "MPC decide (s)"});
  for (std::size_t m : ms) {
    common::Config local = config;
    local.Set("num_edps", std::to_string(m));
    local.Set("num_requesters", std::to_string(3 * m));
    core::MfgParams params = bench::SolverParams(local);
    sim::SimulatorOptions options = bench::SimOptions(local, params);
    options.num_contents =
        static_cast<std::size_t>(config.GetInt("num_contents", 20));
    auto simulator = sim::Simulator::Create(options);
    MFG_CHECK(simulator.ok()) << simulator.status();

    // MFG-CP's planning cost: one equilibrium solve per content — the
    // part the paper's O(K psi_th) complexity bound covers. It does not
    // depend on M, so we time one representative content solve.
    core::MfgParams solve_params = params;
    solve_params.num_requests = simulator->ImpliedRequestsPerEdpContent(
        1.0 / static_cast<double>(options.num_contents));
    const auto solve_start = std::chrono::steady_clock::now();
    core::Equilibrium eq = bench::Solve(solve_params);
    const double solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      solve_start)
            .count();

    auto mfgcp = bench::MfgScheme(solve_params, eq, options.num_contents,
                                  "MFG-CP");
    auto run = [&](const sim::SchemePolicies& scheme) {
      auto result = simulator->Run(scheme);
      MFG_CHECK(result.ok()) << result.status();
      return result->decision_seconds;
    };
    const double mfgcp_decide = run(mfgcp);
    const double rr_decide = run(sim::UniformScheme(
        "RR", baselines::MakeRandomReplacement(), options.num_contents));
    const double mpc_decide = run(sim::UniformScheme(
        "MPC", baselines::MakeMostPopular(), options.num_contents));

    table.AddNumericRow({static_cast<double>(m), solve_seconds,
                         mfgcp_decide, rr_decide, mpc_decide});
  }
  bench::Emit(config, "table2_scaling_table", table);
  std::printf(
      "\nExpected shape: the MFG-CP solve column is flat in M (the "
      "mean-field computation never touches individual EDPs); the "
      "per-EDP decide columns grow ~linearly with M. The paper reports "
      "0.43-0.51 s for MFG-CP and up to 1.78 s for RR at M = 300 on its "
      "hardware.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
