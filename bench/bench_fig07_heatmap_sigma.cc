// Fig. 7 reproduction: same heat map as Fig. 6 but with a tighter initial
// distribution λ(0) ~ N(0.7, 0.05²). Paper's observation: decreasing the
// variance concentrates the heat map (EDPs' caching states stay closer
// together), and the Q_k trend of Fig. 6 is unchanged — a robustness
// check of the solver against the initial condition.

#include <cmath>

#include "bench_common.h"

namespace mfg {
namespace {

// Spread of the density at a few times, for both sigmas.
void Run(const common::Config& config) {
  bench::Banner("Fig. 7",
                "mean-field heat map vs content size, sigma = 0.05");
  common::TextTable spread(
      {"Q_k", "sigma", "std(q)@t=0", "std(q)@t=T/2", "std(q)@t=T",
       "final mass(q<=alpha*Q)"});
  for (double qk : {60.0, 80.0, 100.0, 120.0}) {
    for (double sigma : {0.1, 0.05}) {
      core::MfgParams params = bench::SolverParams(config);
      params.content_size = qk;
      params.init_std_frac = sigma;
      core::Equilibrium eq = bench::Solve(params);
      const std::size_t nt = eq.fpk.densities.size() - 1;
      auto stddev = [&](std::size_t n) {
        return std::sqrt(eq.fpk.densities[n].Variance());
      };
      spread.AddNumericRow(
          {qk, sigma, stddev(0), stddev(nt / 2), stddev(nt),
           eq.fpk.densities.back().MassOnInterval(
               0.0, params.case_alpha * qk)});
    }
  }
  bench::Emit(config, "fig07_heatmap_sigma_spread", spread);
  std::printf(
      "\nExpected shape: sigma = 0.05 rows show a tighter (smaller-std) "
      "distribution at every time than the matching sigma = 0.1 rows; the "
      "saturation trend in Q_k matches Fig. 6.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
