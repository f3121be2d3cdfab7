// Fig. 5 reproduction: the equilibrium caching policy surface x*(t, q).
// Paper's observations: (i) at a fixed time, the caching rate grows with
// the remaining caching space on the upper range (an EDP with plenty of
// free space caches aggressively); (ii) for small remaining space (e.g.
// q = 10) the EDP's caching rate decays as time evolves.
//
// Known deviation (documented in EXPERIMENTS.md): below the sufficiency
// threshold α·Q the literal Eq. 6/9 utility keeps rewarding caching (each
// cached MB is sold to every requester), so x* stays high at small q at
// early times; the paper's monotone-increasing profile appears here on
// the q ≥ α·Q range.

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Fig. 5", "equilibrium caching policy x*(t, q)");
  core::MfgParams params = bench::SolverParams(config);
  core::Equilibrium eq = bench::Solve(params);
  const auto& grid = eq.hjb.q_grid;
  const std::size_t nt = eq.hjb.policy.size() - 1;

  bench::Section("x*(t, q) surface (rows: t, cols: q in MB)");
  std::vector<std::string> header = {"t"};
  std::vector<std::size_t> q_nodes;
  for (double q : {10.0, 20.0, 30.0, 40.0, 50.0, 70.0, 90.0}) {
    q_nodes.push_back(grid.NearestIndex(q));
    header.push_back("q=" + common::FormatDouble(grid.x(q_nodes.back()), 3));
  }
  common::TextTable table(header);
  for (std::size_t n = 0; n <= nt; n += nt / 10) {
    std::vector<double> row = {static_cast<double>(n) * eq.hjb.dt};
    for (std::size_t i : q_nodes) row.push_back(eq.hjb.policy[n][i]);
    table.AddNumericRow(row, 3);
  }
  bench::Emit(config, "fig05_policy_table", table);

  bench::Section("x*(t) for caching states q = 10..50 (paper's slices)");
  common::TextTable slices({"t", "q=10", "q=20", "q=30", "q=40", "q=50"});
  for (std::size_t n = 0; n <= nt; n += nt / 10) {
    std::vector<double> row = {static_cast<double>(n) * eq.hjb.dt};
    for (double q : {10.0, 20.0, 30.0, 40.0, 50.0}) {
      row.push_back(eq.hjb.policy[n][grid.NearestIndex(q)]);
    }
    slices.AddNumericRow(row, 3);
  }
  bench::Emit(config, "fig05_policy_slices", slices);
  std::printf(
      "\nExpected shape: x*(t, q=10) decays toward 0 as t -> T; on the "
      "q >= 30 MB range x* grows with q at mid-horizon times.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
