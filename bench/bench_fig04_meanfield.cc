// Fig. 4 reproduction: evolution of the mean-field distribution λ(t, q) at
// the equilibrium. The paper's observations: (i) at a fixed time the
// density is unimodal in the remaining space q; (ii) as time evolves, the
// mass at large remaining space (60-70 MB) vanishes while the mass around
// 30 MB first rises (the population caches up and the bulk of EDPs passes
// through the mid range).

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Fig. 4", "mean-field distribution at equilibrium");
  core::MfgParams params = bench::SolverParams(config);
  core::Equilibrium eq = bench::Solve(params);
  std::printf("equilibrium: converged=%s after %zu iterations\n",
              eq.converged ? "yes" : "no", eq.iterations);

  const auto& grid = eq.fpk.q_grid;
  const std::size_t nt = eq.fpk.densities.size() - 1;

  bench::Section("density lambda(t, q) over time (rows: t, cols: q in MB)");
  std::vector<std::string> header = {"t"};
  std::vector<std::size_t> q_nodes;
  for (double q : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0}) {
    q_nodes.push_back(grid.NearestIndex(q));
    header.push_back("q=" + common::FormatDouble(grid.x(q_nodes.back()), 3));
  }
  common::TextTable table(header);
  for (std::size_t n = 0; n <= nt; n += nt / 10) {
    std::vector<double> row = {static_cast<double>(n) * eq.fpk.dt};
    for (std::size_t i : q_nodes) {
      row.push_back(eq.fpk.densities[n].value_at_node(i));
    }
    table.AddNumericRow(row, 3);
  }
  bench::Emit(config, "fig04_meanfield_table", table);

  bench::Section("summary trajectory");
  common::TextTable summary({"t", "mean_q", "mass(q<=20)", "mass(q>=60)"});
  for (std::size_t n = 0; n <= nt; n += nt / 10) {
    const auto& density = eq.fpk.densities[n];
    summary.AddNumericRow({static_cast<double>(n) * eq.fpk.dt,
                           density.Mean(),
                           density.MassOnInterval(0.0, 20.0),
                           density.MassOnInterval(60.0, grid.hi())});
  }
  bench::Emit(config, "fig04_meanfield_summary", summary);
  std::printf(
      "\nExpected shape: the q>=60 mass decays to ~0 while the density "
      "around q=30 MB rises as the wave passes, then drains toward q<=20 "
      "(paper: '60-70 MB vanish... 30 MB presents an upward trend').\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
