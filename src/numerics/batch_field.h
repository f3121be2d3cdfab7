#ifndef MFGCP_NUMERICS_BATCH_FIELD_H_
#define MFGCP_NUMERICS_BATCH_FIELD_H_

#include <cstddef>
#include <span>
#include <vector>

// Structure-of-arrays scratch field for the content-batched solver path.
//
// A BatchField stores one value per (node, lane) with the K lanes of a
// node contiguous in memory ([node][lane] layout, row stride == lanes()).
// Lane l holds content l of the batch; kernels written as
//
//   for (node i) for (lane l) out[i*K + l] = f(in[i*K + l], ...);
//
// have a unit-stride innermost loop the compiler auto-vectorizes across
// lanes. Lanes never exchange data inside a kernel, which is what keeps
// every lane's result independent of the batch width (LaneAxis below is
// the one documented exception).
//
// Like TimeField2D, Assign() reuses capacity so a warmed workspace stays
// allocation-free across epochs (the allocs_per_epoch=0 contract).

namespace mfg::numerics {

// The lanes of a batch read as the nodes of a second uniform grid axis —
// the one exception to lane independence. The HJB/FPK batch sweeps take
// one in coupled mode (the 2-D (h, q) solvers, whose lane l is channel
// node h_l; the epoch planner never passes one): every lane then steps
// with the shared `substeps` and `dt_sub`, and once per substep a
// cross-lane pass adds the axis's advection (drift[l] per lane) and
// diffusion terms. Needs at least three lanes.
struct LaneAxis {
  std::vector<double> drift;  // Advection speed at each lane's node.
  double diffusion = 0.0;     // Diffusion coefficient along the axis.
  double dx = 0.0;            // Node spacing.
  std::size_t substeps = 1;   // Explicit substeps per output step.
  double dt_sub = 0.0;        // Their length.
};

class BatchField {
 public:
  BatchField() = default;

  // Resizes to nodes x lanes and fills with `fill`. Reuses capacity.
  void Assign(std::size_t nodes, std::size_t lanes, double fill = 0.0) {
    nodes_ = nodes;
    lanes_ = lanes;
    data_.assign(nodes * lanes, fill);
  }

  // Resizes to nodes x lanes without the fill (TimeField2D::Reshape): for
  // outputs whose every element the caller writes before reading it.
  void Reshape(std::size_t nodes, std::size_t lanes) {
    nodes_ = nodes;
    lanes_ = lanes;
    data_.resize(nodes * lanes);
  }

  std::size_t nodes() const { return nodes_; }
  std::size_t lanes() const { return lanes_; }
  bool empty() const { return data_.empty(); }

  // The K lane values of node i.
  std::span<double> operator[](std::size_t i) {
    return {data_.data() + i * lanes_, lanes_};
  }
  std::span<const double> operator[](std::size_t i) const {
    return {data_.data() + i * lanes_, lanes_};
  }

  double& at(std::size_t node, std::size_t lane) {
    return data_[node * lanes_ + lane];
  }
  double at(std::size_t node, std::size_t lane) const {
    return data_[node * lanes_ + lane];
  }

  // Flat [node * lanes + lane] storage for kernel inner loops.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

  friend bool operator==(const BatchField& a, const BatchField& b) {
    return a.nodes_ == b.nodes_ && a.lanes_ == b.lanes_ && a.data_ == b.data_;
  }

 private:
  std::size_t nodes_ = 0;
  std::size_t lanes_ = 0;
  std::vector<double> data_;
};

}  // namespace mfg::numerics

#endif  // MFGCP_NUMERICS_BATCH_FIELD_H_
