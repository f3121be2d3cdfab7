// Lane packs (numerics/lane_vector.h) must reproduce, lane by lane, the
// scalar operations the batched kernels replaced with them — bit for bit,
// on the operands where IEEE behaviour differs between formulations:
// signed zeros, NaN (as a mask and as an operand), infinities and
// subnormals — and ForEachLaneChunk must visit every lane exactly once.

#include "numerics/lane_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "numerics/simd_support.h"

namespace mfg::numerics {
namespace {

const std::vector<double>& Specials() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      1.5,
      -2.25,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      1e-300,
  };
  return values;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Runs `check(a, b, c, lane)` over packs of W lanes filled from every
// (a, b, c) triple of special values, each triple in a rotating lane.
template <std::size_t W, typename Pack, typename Check>
void ForEachTriple(Check&& check) {
  const std::vector<double>& s = Specials();
  std::size_t lane = 0;
  for (double a : s) {
    for (double b : s) {
      for (double c : s) {
        double av[W], bv[W], cv[W];
        for (std::size_t l = 0; l < W; ++l) av[l] = bv[l] = cv[l] = 1.0;
        av[lane] = a;
        bv[lane] = b;
        cv[lane] = c;
        check(LoadLanes<W>(av), LoadLanes<W>(bv), LoadLanes<W>(cv), av, bv,
              cv);
        lane = (lane + 1) % W;
      }
    }
  }
}

template <std::size_t W>
void CheckPackOps() {
  using Pack = LaneVector<W>;
  ForEachTriple<W, Pack>([](Pack a, Pack b, Pack c, const double* av,
                            const double* bv, const double* cv) {
    double select[W], abs[W], max[W], greater[W];
    StoreLanes<W>(select, SelectLanes<W>(a, b, c));
    StoreLanes<W>(abs, AbsLanes<W>(b));
    StoreLanes<W>(max, MaxKeepLanes<W>(b, c));
    StoreLanes<W>(greater, GreaterLanes<W>(b, c));
    for (std::size_t l = 0; l < W; ++l) {
      SCOPED_TRACE(::testing::Message()
                   << "lane " << l << " a " << av[l] << " b " << bv[l]
                   << " c " << cv[l]);
      EXPECT_EQ(Bits(select[l]), Bits(LaneSelect(av[l], bv[l], cv[l])));
      EXPECT_EQ(Bits(abs[l]), Bits(std::fabs(bv[l])));
      EXPECT_EQ(Bits(max[l]), Bits(std::max(bv[l], cv[l])));
      EXPECT_EQ(Bits(greater[l]), Bits(bv[l] > cv[l] ? 1.0 : 0.0));
    }
  });
}

TEST(LaneVectorTest, PackOpsMatchScalarBitwise) {
  CheckPackOps<1>();
  CheckPackOps<2>();
  CheckPackOps<4>();
  CheckPackOps<8>();
}

TEST(LaneVectorTest, ChunksCoverEveryLaneOnceWidestFirst) {
  for (std::size_t m = 0; m <= 20; ++m) {
    SCOPED_TRACE(::testing::Message() << "m " << m);
    std::vector<int> visits(m, 0);
    std::vector<std::size_t> widths;
    std::size_t next = 0;
    ForEachLaneChunk(m, [&]<std::size_t W>(std::size_t l0) {
      EXPECT_EQ(l0, next);  // Consecutive chunks.
      for (std::size_t l = l0; l < l0 + W; ++l) ++visits[l];
      widths.push_back(W);
      next = l0 + W;
    });
    EXPECT_EQ(next, m);
    EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                            [](int v) { return v == 1; }));
    EXPECT_TRUE(std::is_sorted(widths.rbegin(), widths.rend()));
    // At most one chunk of each width below 8.
    for (std::size_t w : {1u, 2u, 4u}) {
      EXPECT_LE(std::count(widths.begin(), widths.end(), w), 1);
    }
  }
}

}  // namespace
}  // namespace mfg::numerics
