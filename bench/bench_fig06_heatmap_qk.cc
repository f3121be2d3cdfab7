// Fig. 6 reproduction: heat map of the mean-field distribution under
// different content sizes Q_k, with λ(0) ~ N(0.7, 0.1²) (scaled by Q_k).
// Paper's observation: the caching space "gradually reaches saturation"
// (mass piles up at the cached end) as Q_k increases, because the optimal
// caching strategy grows with Q_k (Eq. 21's Q_k factor).

#include "bench_common.h"

namespace mfg {
namespace {

void PrintHeatMap(const common::Config& config,
                  const core::Equilibrium& eq, double content_size) {
  const std::size_t nt = eq.fpk.densities.size() - 1;
  // Rows: normalized remaining space q/Q in deciles; cols: time.
  std::vector<std::string> header = {"q/Q"};
  for (std::size_t n = 0; n <= nt; n += nt / 8) {
    header.push_back("t=" + common::FormatDouble(
                               static_cast<double>(n) * eq.fpk.dt, 2));
  }
  common::TextTable table(header);
  for (double frac = 0.9; frac >= 0.05; frac -= 0.1) {
    std::vector<double> row = {frac};
    for (std::size_t n = 0; n <= nt; n += nt / 8) {
      const double lo = (frac - 0.05) * content_size;
      const double hi = (frac + 0.05) * content_size;
      row.push_back(eq.fpk.densities[n].MassOnInterval(lo, hi));
    }
    table.AddNumericRow(row, 3);
  }
  bench::Emit(config,
              "fig06_heatmap_qk_" + common::FormatDouble(content_size, 4),
              table);
}

void Run(const common::Config& config) {
  bench::Banner("Fig. 6",
                "mean-field heat map vs content size, sigma = 0.1");
  const double sigma = config.GetDouble("init_std", 0.1);
  for (double qk : {60.0, 80.0, 100.0, 120.0}) {
    core::MfgParams params = bench::SolverParams(config);
    params.content_size = qk;
    params.init_std_frac = sigma;
    core::Equilibrium eq = bench::Solve(params);
    bench::Section("Q_k = " + common::FormatDouble(qk, 4) + " MB (mass per "
                   "q/Q decile over time)");
    PrintHeatMap(config, eq, qk);
    std::printf("final mass below alpha*Q: %.3f\n",
                eq.fpk.densities.back().MassOnInterval(
                    0.0, params.case_alpha * qk));
  }
  std::printf(
      "\nExpected shape: for every Q_k the mass migrates from q/Q = 0.7 "
      "toward the cached end; larger Q_k saturates at least as strongly "
      "(Eq. 21's optimal rate scales with Q_k).\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
