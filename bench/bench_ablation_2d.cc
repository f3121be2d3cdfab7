// Ablation: the reduced 1-D cache-state solver vs the full 2-D (h, q)
// solver, plus the equilibrium's exploitability (Nash gap) — the
// quantitative face of Theorem 2 and the justification for running the
// figure benches on the 1-D reduction.

#include <chrono>
#include <cmath>

#include "bench_common.h"
#include "core/best_response_2d.h"
#include "core/equilibrium_metrics.h"

namespace mfg {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Run(const common::Config& config) {
  bench::Banner("Ablation 2D", "reduced 1-D vs full 2-D state space");
  core::MfgParams params = bench::SolverParams(config);
  params.grid.num_q_nodes =
      static_cast<std::size_t>(config.GetInt("grid", 61));
  params.grid.num_h_nodes =
      static_cast<std::size_t>(config.GetInt("h_grid", 21));
  params.grid.num_time_steps = 80;

  const auto start_1d = std::chrono::steady_clock::now();
  auto learner_1d = core::BestResponseLearner::Create(params);
  MFG_CHECK(learner_1d.ok()) << learner_1d.status();
  auto eq_1d = learner_1d->Solve();
  MFG_CHECK(eq_1d.ok()) << eq_1d.status();
  const double time_1d = Seconds(start_1d);

  const auto start_2d = std::chrono::steady_clock::now();
  auto learner_2d = core::BestResponseLearner2D::Create(params);
  MFG_CHECK(learner_2d.ok()) << learner_2d.status();
  auto eq_2d = learner_2d->Solve();
  MFG_CHECK(eq_2d.ok()) << eq_2d.status();
  const double time_2d = Seconds(start_2d);

  bench::Section("solver comparison");
  common::TextTable compare({"solver", "iterations", "converged",
                             "wall time (s)"});
  compare.AddRow({"1-D (h frozen at upsilon)",
                  std::to_string(eq_1d->iterations),
                  eq_1d->converged ? "yes" : "no",
                  common::FormatDouble(time_1d, 3)});
  compare.AddRow({"2-D (full state)", std::to_string(eq_2d->iterations),
                  eq_2d->converged ? "yes" : "no",
                  common::FormatDouble(time_2d, 3)});
  bench::Emit(config, "ablation_2d_compare", compare);

  bench::Section("policy agreement at h = upsilon (mean |x_2D - x_1D|)");
  common::TextTable agree({"t", "mean abs policy gap"});
  const std::size_t nt = params.grid.num_time_steps;
  for (std::size_t n = 0; n <= nt; n += nt / 8) {
    const auto slice_2d =
        eq_2d->hjb.PolicyAtH(n, params.channel.upsilon);
    double gap = 0.0;
    for (std::size_t iq = 0; iq < slice_2d.size(); ++iq) {
      gap += std::fabs(slice_2d[iq] - eq_1d->hjb.policy[n][iq]);
    }
    agree.AddNumericRow({static_cast<double>(n) * params.TimeStep(),
                         gap / static_cast<double>(slice_2d.size())});
  }
  bench::Emit(config, "ablation_2d_agree", agree);

  bench::Section("exploitability (Nash gap) of the 1-D equilibrium");
  auto report = core::ComputeExploitability(params, *eq_1d);
  MFG_CHECK(report.ok()) << report.status();
  common::TextTable nash({"metric", "value"});
  nash.AddRow({"best-response value",
               common::FormatDouble(report->best_response_value, 6)});
  nash.AddRow({"equilibrium policy value",
               common::FormatDouble(report->policy_value, 6)});
  nash.AddRow({"gap", common::FormatDouble(report->gap, 4)});
  nash.AddRow({"relative gap",
               common::FormatDouble(report->RelativeGap(), 4)});
  bench::Emit(config, "ablation_2d_nash", nash);

  bench::Section("FPK scheme: explicit vs implicit (same policy)");
  auto fpk_explicit = core::FpkSolver1D::Create(params).value();
  core::MfgParams implicit_params = params;
  implicit_params.grid.implicit_fpk = true;
  auto fpk_implicit = core::FpkSolver1D::Create(implicit_params).value();
  auto initial = fpk_explicit.MakeInitialDensity().value();
  const auto start_e = std::chrono::steady_clock::now();
  auto sol_e = fpk_explicit.Solve(initial, eq_1d->hjb.policy).value();
  const double time_e = Seconds(start_e);
  const auto start_i = std::chrono::steady_clock::now();
  auto sol_i = fpk_implicit.Solve(initial, eq_1d->hjb.policy).value();
  const double time_i = Seconds(start_i);
  common::TextTable fpk({"scheme", "wall time (s)", "final mean q",
                         "L1 vs explicit"});
  fpk.AddRow({"explicit (CFL sub-stepped)", common::FormatDouble(time_e, 3),
              common::FormatDouble(sol_e.densities.back().Mean(), 4), "0"});
  fpk.AddRow(
      {"implicit (backward Euler)", common::FormatDouble(time_i, 3),
       common::FormatDouble(sol_i.densities.back().Mean(), 4),
       common::FormatDouble(
           sol_e.densities.back().L1Distance(sol_i.densities.back())
               .value(),
           4)});
  bench::Emit(config, "ablation_2d_fpk", fpk);
  std::printf(
      "\nExpected shape: small policy gap at h = upsilon (the 1-D "
      "reduction is faithful); relative Nash gap well below 1%%; the "
      "implicit FPK matches the explicit one to O(dt) at a fraction of "
      "the sub-steps.\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
