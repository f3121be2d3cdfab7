// Ablation bench (DESIGN.md §4's design choices): how the iterative
// best-response learner's knobs affect convergence and the solution.
//   (a) relaxation factor γ — pure best-response (γ = 1) vs damped;
//   (b) q-grid resolution — discretization error of the equilibrium;
//   (c) convergence tolerance — iterations-to-converge trade-off.

#include <cmath>

#include "bench_common.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Ablation", "best-response learner design choices");

  bench::Section("(a) relaxation factor gamma (Alg. 2 damping)");
  common::TextTable gamma_table(
      {"gamma", "iterations", "converged", "final change", "mean x @ t=0"});
  for (double gamma : {0.2, 0.5, 0.8, 1.0}) {
    core::MfgParams params = bench::SolverParams(config);
    params.learning.relaxation = gamma;
    params.learning.max_iterations = 80;
    core::Equilibrium eq = bench::Solve(params);
    double mean_x = 0.0;
    for (double x : eq.hjb.policy[0]) mean_x += x;
    mean_x /= static_cast<double>(eq.hjb.policy[0].size());
    gamma_table.AddNumericRow(
        {gamma, static_cast<double>(eq.iterations),
         eq.converged ? 1.0 : 0.0, eq.policy_change_history.back(),
         mean_x});
  }
  bench::Emit(config, "ablation_solver_gamma_table", gamma_table);

  bench::Section("(b) q-grid resolution (vs finest as reference)");
  // Reference: 161 nodes. Compare the t=0 mean policy and final density
  // mean across resolutions.
  std::vector<std::size_t> grids = {21, 41, 81, 161};
  std::vector<double> mean_x0(grids.size());
  std::vector<double> final_mean_q(grids.size());
  for (std::size_t g = 0; g < grids.size(); ++g) {
    core::MfgParams params = bench::SolverParams(config);
    params.grid.num_q_nodes = grids[g];
    core::Equilibrium eq = bench::Solve(params);
    double mean_x = 0.0;
    for (double x : eq.hjb.policy[0]) mean_x += x;
    mean_x0[g] = mean_x / static_cast<double>(eq.hjb.policy[0].size());
    final_mean_q[g] = eq.fpk.densities.back().Mean();
  }
  common::TextTable grid_table({"q nodes", "mean x*(0, .)",
                                "final mean q",
                                "|final mean q - reference|"});
  for (std::size_t g = 0; g < grids.size(); ++g) {
    grid_table.AddNumericRow({static_cast<double>(grids[g]), mean_x0[g],
                              final_mean_q[g],
                              std::fabs(final_mean_q[g] -
                                        final_mean_q.back())});
  }
  bench::Emit(config, "ablation_solver_grid_table", grid_table);

  bench::Section("(c) tolerance vs iterations");
  common::TextTable tol_table({"tolerance", "iterations", "converged"});
  for (double tol : {1e-1, 1e-2, 1e-3, 1e-4}) {
    core::MfgParams params = bench::SolverParams(config);
    params.learning.tolerance = tol;
    params.learning.max_iterations = 120;
    core::Equilibrium eq = bench::Solve(params);
    tol_table.AddNumericRow({tol, static_cast<double>(eq.iterations),
                             eq.converged ? 1.0 : 0.0});
  }
  bench::Emit(config, "ablation_solver_tol_table", tol_table);
  std::printf(
      "\nExpected shape: all gammas reach the same fixed point (unique NE, "
      "Thm. 2); discretization error shrinks with grid refinement; "
      "tighter tolerances cost more sweeps.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
