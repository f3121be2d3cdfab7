// Fig. 13 reproduction: utility and staleness cost of one tagged content
// versus its (fixed) popularity Π_k in [0.3, 0.7], for all five schemes.
// The tagged content gets a Π share of all requests inside a full
// K-content market (per-content ledgers from the simulator); the rest of
// the catalog splits the remainder evenly. Paper's observations: (i)
// MFG-CP has the highest utility and a lower staleness cost than the
// baselines across the popularity range; (ii) a higher Π_k brings a
// higher utility (more requests, more income); (iii) UDCS's utility
// varies the least across popularity.

#include "bench_common.h"

namespace mfg {
namespace {

// Per-EDP utility and staleness of the tagged content.
struct ContentScore {
  double utility = 0.0;
  double staleness = 0.0;
};

ContentScore ScoreContent(const sim::SimulationResult& result,
                          std::size_t content, std::size_t num_edps) {
  const sim::EdpAccount& account = result.per_content[content];
  ContentScore score;
  score.utility = account.Utility() / static_cast<double>(num_edps);
  score.staleness =
      account.staleness_cost / static_cast<double>(num_edps);
  return score;
}

void Run(const common::Config& config) {
  bench::Banner("Fig. 13", "tagged-content utility / staleness vs popularity");
  const std::vector<double> pops = {0.3, 0.4, 0.5, 0.6, 0.7};
  const std::size_t tagged = 0;

  common::TextTable utility({"popularity", "MFG-CP", "MFG", "UDCS", "MPC",
                             "RR"});
  common::TextTable staleness({"popularity", "MFG-CP", "MFG", "UDCS",
                               "MPC", "RR"});
  for (double pop : pops) {
    core::MfgParams params = bench::SolverParams(config);
    sim::SimulatorOptions options = bench::SimOptions(config, params);
    // Fix the request mix for the whole run: the tagged content takes a
    // `pop` share, the rest of the catalog splits the remainder.
    std::vector<double> weights(options.num_contents,
                                (1.0 - pop) /
                                    static_cast<double>(
                                        options.num_contents - 1));
    weights[tagged] = pop;
    options.trace_daily_weights = {weights};
    auto simulator = sim::Simulator::Create(options);
    MFG_CHECK(simulator.ok()) << simulator.status();

    // MFG-CP / MFG: per-content equilibria (tagged vs background load).
    auto scheme_for = [&](bool sharing) {
      core::MfgParams tagged_params = params;
      tagged_params.sharing_enabled = sharing;
      tagged_params.popularity = pop;
      tagged_params.num_requests =
          simulator->ImpliedRequestsPerEdpContent(pop);
      core::Equilibrium tagged_eq = bench::Solve(tagged_params);
      auto tagged_policy = core::MfgPolicy::Create(
          tagged_params, tagged_eq, sharing ? "MFG-CP" : "MFG");
      MFG_CHECK(tagged_policy.ok()) << tagged_policy.status();

      core::MfgParams rest_params = tagged_params;
      rest_params.popularity = weights[1];
      rest_params.num_requests =
          simulator->ImpliedRequestsPerEdpContent(weights[1]);
      core::Equilibrium rest_eq = bench::Solve(rest_params);
      auto rest_policy = core::MfgPolicy::Create(
          rest_params, rest_eq, sharing ? "MFG-CP" : "MFG");
      MFG_CHECK(rest_policy.ok()) << rest_policy.status();

      sim::SchemePolicies scheme;
      scheme.name = sharing ? "MFG-CP" : "MFG";
      std::shared_ptr<core::CachingPolicy> shared_rest(
          std::move(rest_policy).value());
      scheme.per_content.assign(options.num_contents, shared_rest);
      scheme.per_content[tagged] =
          std::shared_ptr<core::CachingPolicy>(
              std::move(tagged_policy).value());
      return scheme;
    };

    auto run = [&](sim::Simulator& s, const sim::SchemePolicies& scheme) {
      auto result = s.Run(scheme);
      MFG_CHECK(result.ok()) << result.status();
      return ScoreContent(*result, tagged, options.num_edps);
    };

    sim::SimulatorOptions no_share_options = options;
    no_share_options.base_params.sharing_enabled = false;
    auto no_share_sim = sim::Simulator::Create(no_share_options);
    MFG_CHECK(no_share_sim.ok()) << no_share_sim.status();

    const ContentScore mfgcp = run(*simulator, scheme_for(true));
    const ContentScore mfg = run(*no_share_sim, scheme_for(false));
    const ContentScore udcs =
        run(*simulator, sim::UniformScheme("UDCS", baselines::MakeUdcs(),
                                           options.num_contents));
    const ContentScore mpc = run(
        *simulator, sim::UniformScheme("MPC", baselines::MakeMostPopular(),
                                       options.num_contents));
    const ContentScore rr = run(
        *simulator,
        sim::UniformScheme("RR", baselines::MakeRandomReplacement(),
                           options.num_contents));

    utility.AddNumericRow({pop, mfgcp.utility, mfg.utility, udcs.utility,
                           mpc.utility, rr.utility});
    staleness.AddNumericRow({pop, mfgcp.staleness, mfg.staleness,
                             udcs.staleness, mpc.staleness, rr.staleness});
  }

  bench::Section("(a) tagged-content utility per EDP");
  bench::Emit(config, "fig13_popularity_utility", utility);
  bench::Section("(b) tagged-content staleness cost per EDP");
  bench::Emit(config, "fig13_popularity_staleness", staleness);
  std::printf(
      "\nExpected shape: MFG-CP has the highest utility across the "
      "popularity range; utility rises with popularity; UDCS's utility "
      "varies the least (it ignores the economics).\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
