// Fig. 3 reproduction: evolution of the channel gain under the OU fading
// model (Eq. 1). Series (a): mean reversion toward different long-term
// means υ_h. Series (b): trajectory spread under different diffusion
// levels ϱ_h. The paper's takeaways: trajectories revert to υ_h, and a
// larger ϱ_h gives a "greater channel deviation trajectory" — we print
// both the sampled paths and the tail mean-absolute-deviation statistic.

#include <vector>

#include "bench_common.h"
#include "net/channel.h"
#include "sde/ornstein_uhlenbeck.h"
#include "sde/path_statistics.h"

namespace mfg {
namespace {

void Run(const common::Config& config) {
  bench::Banner("Fig. 3", "channel gain evolution (OU mean reversion)");
  common::Rng rng(static_cast<std::uint64_t>(config.GetInt("seed", 42)));
  const double dt = 0.002;
  const std::size_t steps = 1000;  // Horizon T = 2 for a visible tail.
  const double h0 = 1.0;

  bench::Section("(a) long-term mean sweep, rho_h = 0.1, h(0) = 1");
  common::TextTable mean_table({"t", "upsilon=4", "upsilon=6", "upsilon=8"});
  std::vector<std::vector<double>> paths_a;
  for (double upsilon : {4.0, 6.0, 8.0}) {
    sde::OuParams params{4.0, upsilon, 0.1};
    auto ou = sde::OrnsteinUhlenbeck::Create(params).value();
    paths_a.push_back(ou.SamplePath(h0, dt, steps, rng).value());
  }
  for (std::size_t i = 0; i <= steps; i += 100) {
    mean_table.AddNumericRow({static_cast<double>(i) * dt, paths_a[0][i],
                              paths_a[1][i], paths_a[2][i]});
  }
  bench::Emit(config, "fig03_channel_mean_table", mean_table);

  bench::Section("(b) diffusion sweep, upsilon = 6, h(0) = 6");
  common::TextTable dev_table(
      {"rho_h", "tail_mean", "tail_mean_abs_dev", "path_min", "path_max"});
  for (double rho : {0.1, 0.2, 0.3}) {
    sde::OuParams params{4.0, 6.0, rho};
    auto ou = sde::OrnsteinUhlenbeck::Create(params).value();
    auto path = ou.SamplePath(6.0, dt, 20000, rng).value();
    auto summary = sde::Summarize(path).value();
    const double dev = sde::TailMeanAbsDeviation(path, 6.0).value();
    dev_table.AddNumericRow({rho, summary.mean, dev, summary.min,
                             summary.max});
  }
  bench::Emit(config, "fig03_channel_dev_table", dev_table);

  bench::Section("(c) channel gain |g|^2 = h^2 d^-tau at d = 100 m, tau = 3");
  common::TextTable gain_table({"t", "gain(rho=0.1)", "gain(rho=0.3)"});
  sde::OuParams low{4.0, 6.0, 0.1};
  sde::OuParams high{4.0, 6.0, 0.3};
  auto ou_low = sde::OrnsteinUhlenbeck::Create(low).value();
  auto ou_high = sde::OrnsteinUhlenbeck::Create(high).value();
  auto path_low = ou_low.SamplePath(6.0, dt, steps, rng).value();
  auto path_high = ou_high.SamplePath(6.0, dt, steps, rng).value();
  for (std::size_t i = 0; i <= steps; i += 100) {
    gain_table.AddNumericRow({static_cast<double>(i) * dt,
                              net::ChannelGain(path_low[i], 100.0, 3.0),
                              net::ChannelGain(path_high[i], 100.0, 3.0)});
  }
  bench::Emit(config, "fig03_channel_gain_table", gain_table);
  std::printf(
      "\nExpected shape: (a) every path converges to its upsilon; "
      "(b) tail deviation grows with rho_h (paper picks rho_h = 0.1).\n");
}

}  // namespace
}  // namespace mfg

int main(int argc, char** argv) {
  return mfg::bench::RunWithArgs(argc, argv, mfg::Run);
}
