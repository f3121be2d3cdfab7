#ifndef MFGCP_NUMERICS_TIME_FIELD_H_
#define MFGCP_NUMERICS_TIME_FIELD_H_

#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

// Flat row-major storage for time-indexed fields: row n holds the spatial
// slice at time node n (value function, policy, density samples, ...). The
// solvers keep their whole trajectory in one contiguous buffer so that the
// steady-state path of a Solve() re-uses capacity instead of re-allocating
// nt+1 inner vectors per call, and row access hands out std::span views —
// `field[n]` behaves like the old `std::vector<double>` slice for indexing
// and range-for, without owning memory.

namespace mfg::numerics {

class TimeField2D {
 public:
  TimeField2D() = default;
  TimeField2D(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Re-shapes and refills in place; reuses the existing heap block whenever
  // capacity suffices (this is the hot-path entry point for workspaces).
  void Assign(std::size_t rows, std::size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  // Re-shapes without the fill: samples surviving from the previous shape
  // keep stale values (only growth value-initializes). For outputs whose
  // every element the caller overwrites before anyone reads it.
  void Reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  void clear() {
    rows_ = 0;
    cols_ = 0;
    data_.clear();
  }

  // Number of time slices; named like the container interface the nested
  // vector offered so `field.size()`, `field.empty()` and row loops read
  // the same as before the flattening.
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::span<double> operator[](std::size_t n) {
    return std::span<double>(data_.data() + n * cols_, cols_);
  }
  std::span<const double> operator[](std::size_t n) const {
    return std::span<const double>(data_.data() + n * cols_, cols_);
  }

  std::span<double> front() { return (*this)[0]; }
  std::span<const double> front() const { return (*this)[0]; }
  std::span<double> back() { return (*this)[rows_ - 1]; }
  std::span<const double> back() const { return (*this)[rows_ - 1]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  const std::vector<double>& flat() const { return data_; }
  // All rows × cols samples as one mutable span, for whole-field kernels.
  std::span<double> elements() { return data_; }

  // Row iteration for `for (const auto& slice : field)`.
  class ConstRowIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::span<const double>;
    using difference_type = std::ptrdiff_t;

    ConstRowIterator(const TimeField2D* field, std::size_t row)
        : field_(field), row_(row) {}
    std::span<const double> operator*() const { return (*field_)[row_]; }
    ConstRowIterator& operator++() {
      ++row_;
      return *this;
    }
    ConstRowIterator operator++(int) {
      ConstRowIterator out = *this;
      ++row_;
      return out;
    }
    friend bool operator==(const ConstRowIterator& a,
                           const ConstRowIterator& b) {
      return a.row_ == b.row_;
    }

   private:
    const TimeField2D* field_;
    std::size_t row_;
  };

  ConstRowIterator begin() const { return ConstRowIterator(this, 0); }
  ConstRowIterator end() const { return ConstRowIterator(this, rows_); }

  // Copy out to the nested-vector shape for cold-path consumers (CSV
  // export, the equilibrium metrics helpers, tests that diff tables).
  std::vector<std::vector<double>> ToNested() const {
    std::vector<std::vector<double>> out(rows_);
    for (std::size_t n = 0; n < rows_; ++n) {
      const auto row = (*this)[n];
      out[n].assign(row.begin(), row.end());
    }
    return out;
  }

  friend bool operator==(const TimeField2D& a, const TimeField2D& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_TIME_FIELD_H_
