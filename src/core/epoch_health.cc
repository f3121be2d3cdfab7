#include "core/epoch_health.h"

#include <atomic>
#include <cstdio>
#include <sstream>

namespace mfg::core {
namespace {

std::atomic<bool> g_health_logging{false};

}  // namespace

std::string FormatHealthLine(const EpochHealthReport& report) {
  std::ostringstream out;
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.3f", report.plan_seconds);
  out << "epoch " << report.epoch << ": active=" << report.active
      << " wall=" << wall << "s outcomes solved=" << report.solved
      << " retried=" << report.retried
      << " carried_forward=" << report.carried_forward
      << " fallback=" << report.fallback << " failed=" << report.failed
      << " br solves=" << report.best_response_solves
      << " converged=" << report.best_response_converged
      << " nonconverged=" << report.best_response_nonconverged
      << " allocs=" << report.allocations;
  if (report.deadline_misses > 0) {
    out << " deadline_misses=" << report.deadline_misses;
  }
  if (report.eq_probed > 0) {
    char gap[32], rel[32], cons[32], price[32];
    std::snprintf(gap, sizeof(gap), "%.3g", report.eq_exploitability);
    std::snprintf(rel, sizeof(rel), "%.3g", report.eq_exploitability_rel);
    std::snprintf(cons, sizeof(cons), "%.3g",
                  report.eq_consistency_residual);
    std::snprintf(price, sizeof(price), "%.3g", report.eq_price_mean);
    out << " eq probed=" << report.eq_probed << " gap=" << gap
        << " rel=" << rel << " cons=" << cons << " price=" << price;
  }
  if (report.serve_ticks > 0) {
    char p50[32], p90[32], p99[32];
    std::snprintf(p50, sizeof(p50), "%.3g", report.tick_p50);
    std::snprintf(p90, sizeof(p90), "%.3g", report.tick_p90);
    std::snprintf(p99, sizeof(p99), "%.3g", report.tick_p99);
    out << " serve ticks=" << report.serve_ticks << " tick_p50=" << p50
        << " tick_p90=" << p90 << " tick_p99=" << p99;
  }
  if (!report.degraded_contents.empty()) {
    out << " degraded=[";
    for (std::size_t i = 0; i < report.degraded_contents.size(); ++i) {
      if (i > 0) out << ",";
      out << report.degraded_contents[i];
    }
    out << "]";
  }
  if (!report.flight_dump_path.empty()) {
    out << " dump=" << report.flight_dump_path;
  }
  return out.str();
}

void SetEpochHealthLogging(bool enabled) {
  g_health_logging.store(enabled, std::memory_order_relaxed);
}

bool EpochHealthLoggingEnabled() {
  return g_health_logging.load(std::memory_order_relaxed);
}

}  // namespace mfg::core
