#ifndef MFGCP_OBS_OBS_H_
#define MFGCP_OBS_OBS_H_

// Instrumentation façade for the solver stack. All call sites go through
// these macros so a single compile-time switch strips every probe:
//
//   cmake -DMFGCP_OBS=OFF   ->  MFGCP_OBS_ENABLED == 0  ->  all macros
//                               reduce to unevaluated (void)sizeof(arg).
//
// With observability ON (the default), the macros cache the registry
// handle in a function-local static, so the steady-state cost per hit is
// one relaxed atomic op (counter/gauge) or two clock reads (timer/span)
// — never a heap allocation. The `allocs_per_iter=0` contract of the
// *Into solver kernels holds with observability ON; `bench_micro_solvers`
// enforces it.
//
//   MFG_OBS_COUNT(name, delta)        bump a counter
//   MFG_OBS_GAUGE_SET(name, value)    set a gauge
//   MFG_OBS_OBSERVE(name, value)      record into a histogram
//                                     (kDefaultSecondsBounds)
//   MFG_OBS_OBSERVE_COUNTS(name, v)   same, kDefaultCountBounds buckets
//   MFG_OBS_SCOPED_TIMER(name)        RAII: seconds of the scope into a
//                                     histogram
//   MFG_OBS_SCOPED_LANE_TIMER(name, lanes)
//                                     RAII: the scope's seconds / lanes,
//                                     recorded once per lane (batched
//                                     solvers; `lanes` is a std::size_t
//                                     lvalue read at scope exit)
//   MFG_OBS_SPAN(name)                RAII: chrome trace-event span
//   MFG_OBS_SPAN_ID(name, id)         span with a numeric arg (content id,
//                                     slot index, ...)
//
// Metric and span names must be string literals.

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

#ifndef MFGCP_OBS_ENABLED
#define MFGCP_OBS_ENABLED 1
#endif

#define MFG_OBS_CONCAT_INNER_(a, b) a##b
#define MFG_OBS_CONCAT_(a, b) MFG_OBS_CONCAT_INNER_(a, b)

#if MFGCP_OBS_ENABLED

#define MFG_OBS_COUNT(name, delta)                                      \
  do {                                                                  \
    static ::mfg::obs::Counter& mfg_obs_counter_ =                      \
        ::mfg::obs::Registry::Global().GetCounter(name);                \
    mfg_obs_counter_.Add(delta);                                        \
  } while (false)

#define MFG_OBS_GAUGE_SET(name, value)                                  \
  do {                                                                  \
    static ::mfg::obs::Gauge& mfg_obs_gauge_ =                          \
        ::mfg::obs::Registry::Global().GetGauge(name);                  \
    mfg_obs_gauge_.Set(value);                                          \
  } while (false)

#define MFG_OBS_OBSERVE(name, value)                                    \
  do {                                                                  \
    static ::mfg::obs::Histogram& mfg_obs_histogram_ =                  \
        ::mfg::obs::Registry::Global().GetHistogram(name);              \
    mfg_obs_histogram_.Observe(value);                                  \
  } while (false)

#define MFG_OBS_OBSERVE_COUNTS(name, value)                             \
  do {                                                                  \
    static ::mfg::obs::Histogram& mfg_obs_histogram_ =                  \
        ::mfg::obs::Registry::Global().GetHistogram(                    \
            name, ::mfg::obs::kDefaultCountBounds);                     \
    mfg_obs_histogram_.Observe(value);                                  \
  } while (false)

#define MFG_OBS_SCOPED_TIMER(name)                                     \
  static ::mfg::obs::Histogram& MFG_OBS_CONCAT_(                       \
      mfg_obs_timer_hist_, __LINE__) =                                 \
      ::mfg::obs::Registry::Global().GetHistogram(name);               \
  ::mfg::obs::ScopedTimer MFG_OBS_CONCAT_(mfg_obs_timer_, __LINE__)(   \
      MFG_OBS_CONCAT_(mfg_obs_timer_hist_, __LINE__))

#define MFG_OBS_SCOPED_LANE_TIMER(name, lanes)                        \
  static ::mfg::obs::Histogram& MFG_OBS_CONCAT_(                      \
      mfg_obs_timer_hist_, __LINE__) =                                \
      ::mfg::obs::Registry::Global().GetHistogram(name);              \
  ::mfg::obs::ScopedTimer MFG_OBS_CONCAT_(mfg_obs_timer_, __LINE__)(  \
      MFG_OBS_CONCAT_(mfg_obs_timer_hist_, __LINE__), &(lanes))

#define MFG_OBS_SPAN(name) \
  ::mfg::obs::TraceSpan MFG_OBS_CONCAT_(mfg_obs_span_, __LINE__)(name)

#define MFG_OBS_SPAN_ID(name, id)                            \
  ::mfg::obs::TraceSpan MFG_OBS_CONCAT_(mfg_obs_span_,       \
                                        __LINE__)(name, id)

#else  // !MFGCP_OBS_ENABLED

// Every argument goes under sizeof: unevaluated, so nothing runs and no
// symbol is referenced, but a local that only feeds telemetry still counts
// as used and the build stays -Werror clean.
#define MFG_OBS_COUNT(name, delta) (void)sizeof(name), (void)sizeof(delta)
#define MFG_OBS_GAUGE_SET(name, value) (void)sizeof(name), (void)sizeof(value)
#define MFG_OBS_OBSERVE(name, value) (void)sizeof(name), (void)sizeof(value)
#define MFG_OBS_OBSERVE_COUNTS(name, value) \
  (void)sizeof(name), (void)sizeof(value)
#define MFG_OBS_SCOPED_TIMER(name) (void)sizeof(name)
#define MFG_OBS_SCOPED_LANE_TIMER(name, lanes) \
  (void)sizeof(name), (void)sizeof(lanes)
#define MFG_OBS_SPAN(name) (void)sizeof(name)
#define MFG_OBS_SPAN_ID(name, id) (void)sizeof(name), (void)sizeof(id)

#endif  // MFGCP_OBS_ENABLED

#endif  // MFGCP_OBS_OBS_H_
