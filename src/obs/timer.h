#ifndef MFGCP_OBS_TIMER_H_
#define MFGCP_OBS_TIMER_H_

#include <chrono>
#include <cstddef>

#include "obs/metrics.h"

// RAII scoped timer: records the scope's wall time (seconds, steady
// clock) into a Histogram on destruction. The record path inherits the
// histogram's wait-free / allocation-free contract; obtain the histogram
// handle once (see MFG_OBS_SCOPED_TIMER in obs.h) so the hot path never
// touches the registry.

namespace mfg::obs {

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : ScopedTimer(histogram, nullptr) {}

  // Lane-split form for batched solvers: the scope's seconds are divided
  // evenly over *lanes (read at destruction, so the scope may count its
  // lanes as it goes) and recorded once per lane, so a K-lane batch fills
  // a per-content histogram at the rate K scalar solves would. Records
  // nothing when *lanes is 0.
  ScopedTimer(Histogram& histogram, const std::size_t* lanes)
      : histogram_(histogram),
        lanes_(lanes),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedTimer() {
    const std::size_t lanes = lanes_ == nullptr ? 1 : *lanes_;
    if (lanes > 0) {
      histogram_.Observe(ElapsedSeconds() / static_cast<double>(lanes), lanes);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  Histogram& histogram_;
  const std::size_t* lanes_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mfg::obs

#endif  // MFGCP_OBS_TIMER_H_
