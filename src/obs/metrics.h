#ifndef MFGCP_OBS_METRICS_H_
#define MFGCP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/status.h"

// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms shared by the solver stack, the simulator, and the bench
// binaries.
//
// Contract (the same one the flat solver kernels obey): the *record* path
// — Counter::Add, Gauge::Set, Histogram::Observe — is wait-free and
// allocation-free. Registration (Registry::GetCounter etc.) allocates and
// takes a mutex, so instrumented call sites hold a handle obtained once
// (see the MFG_OBS_* macros in obs.h, which cache it in a function-local
// static) instead of looking metrics up per call. Handles stay valid for
// the process lifetime; the registry never deletes an instrument.
//
// Export is pull-based: Registry::ToJson() / ToCsv() snapshot every
// instrument, and ResetForTesting() zeroes them (tests only — races with
// concurrent recorders are benign but make numbers meaningless).

namespace mfg::obs {

class Counter {
 public:
  // Wait-free, allocation-free.
  void Add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  // Wait-free, allocation-free.
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Histogram over fixed, monotonically increasing upper bucket bounds plus
// an implicit +inf overflow bucket. Bounds are fixed at registration so
// Observe never allocates; at most kMaxBuckets finite bounds are kept
// (excess bounds are dropped into the overflow bucket).
class Histogram {
 public:
  static constexpr std::size_t kMaxBuckets = 24;

  // Wait-free, allocation-free: linear scan over <= kMaxBuckets bounds,
  // then three relaxed atomic updates.
  void Observe(double value) { Observe(value, 1); }

  // `times` observations of the same value, at the cost of one.
  void Observe(double value, std::uint64_t times) {
    std::size_t bucket = num_bounds_;
    for (std::size_t b = 0; b < num_bounds_; ++b) {
      if (value <= bounds_[b]) {
        bucket = b;
        break;
      }
    }
    counts_[bucket].fetch_add(times, std::memory_order_relaxed);
    count_.fetch_add(times, std::memory_order_relaxed);
    sum_.fetch_add(value * static_cast<double>(times),
                   std::memory_order_relaxed);
  }

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    const std::uint64_t n = Count();
    return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
  }
  std::size_t num_bounds() const { return num_bounds_; }
  double bound(std::size_t b) const { return bounds_[b]; }
  // Bucket b counts observations <= bound(b); bucket num_bounds() is the
  // overflow bucket.
  std::uint64_t bucket_count(std::size_t b) const {
    return counts_[b].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(std::initializer_list<double> bounds) {
    for (double b : bounds) {
      if (num_bounds_ == kMaxBuckets) break;
      bounds_[num_bounds_++] = b;
    }
  }

  std::array<double, kMaxBuckets> bounds_{};
  std::size_t num_bounds_ = 0;
  std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Default histogram bounds: exponential seconds ladder covering ~1 µs to
// ~100 s, the range of one estimator call up to a full PlanEpoch.
inline constexpr std::initializer_list<double> kDefaultSecondsBounds = {
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0, 100.0};

// Exponential count ladder (iterations, request counts, ...).
inline constexpr std::initializer_list<double> kDefaultCountBounds = {
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0};

struct MetricsSnapshot;  // snapshot.h

class Registry {
 public:
  // The process-wide registry every instrumented subsystem shares.
  static Registry& Global();

  // Returns the instrument registered under `name`, creating it on first
  // use. Allocates on first registration only; the returned reference is
  // stable for the process lifetime. A histogram's bounds are fixed by the
  // first registration; later callers get the existing instrument.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(
      std::string_view name,
      std::initializer_list<double> bounds = kDefaultSecondsBounds);

  // Captures every instrument into `out` (sorted by name), reusing its
  // storage. Takes the registration mutex only — recorders stay wait-free
  // while a snapshot is in flight. See snapshot.h for the types and the
  // delta arithmetic built on top.
  void SnapshotInto(MetricsSnapshot& out) const;

  // Flat JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  std::string ToJson() const;
  // Flat CSV: kind,name,field,value rows (histograms expand per bucket).
  std::string ToCsv() const;
  common::Status WriteJson(const std::string& path) const;
  common::Status WriteCsv(const std::string& path) const;

  // Zeroes every registered instrument (handles stay valid).
  void ResetForTesting();

  ~Registry();

 private:
  Registry();
  struct Impl;
  Impl* impl_;
};

}  // namespace mfg::obs

#endif  // MFGCP_OBS_METRICS_H_
