#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

// Benchmark-side tracing: spans are recorded only here, around calls into
// the library's public functions, kept in memory and written out when the
// run ends. A span's self time is its duration minus the time its direct
// children cover; per-layer metrics are built from those self times.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

class SpanRecorder {
 public:
  struct Span {
    std::string_view name;  // Always a string literal.
    std::int64_t boundary = -1;  // Epoch boundary the span belongs to.
    int parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  struct Totals {
    double seconds = 0.0;
    double self_seconds = 0.0;
    std::size_t count = 0;
  };

  // Reserves room for `capacity` spans so recording stays off the heap.
  explicit SpanRecorder(std::size_t capacity) {
    spans_.reserve(capacity);
    open_.reserve(64);
  }

  // Opens a span as a child of the innermost open span.
  int Begin(std::string_view name, std::int64_t boundary = -1) {
    Span span;
    span.name = name;
    span.boundary = boundary;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = Clock::now();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  // Closes `id`, which must be the innermost open span.
  void End(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    open_.pop_back();
  }

  // Per-name duration and self-time totals.
  std::map<std::string, Totals> Aggregate() const {
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_seconds[static_cast<std::size_t>(span.parent)] +=
            SecondsBetween(span.start, span.end);
      }
    }
    std::map<std::string, Totals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const double seconds = SecondsBetween(span.start, span.end);
      Totals& t = totals[std::string(span.name)];
      t.seconds += seconds;
      t.self_seconds += seconds - child_seconds[i];
      ++t.count;
    }
    return totals;
  }

  // One JSON object per span (times in microseconds from the first span),
  // after a header line carrying `header_json`.
  bool WriteJsonl(const std::string& path,
                  const std::string& header_json) const {
    std::ofstream out(path);
    if (!out) return false;
    out << header_json << "\n";
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"parent\":" << span.parent
          << ",\"boundary\":" << span.boundary
          << ",\"start_us\":" << SecondsBetween(origin, span.start) * 1e6
          << ",\"end_us\":" << SecondsBetween(origin, span.end) * 1e6
          << "}\n";
    }
    return out.good();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span on an optional recorder (null records nothing).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name,
             std::int64_t boundary = -1)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, boundary)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
