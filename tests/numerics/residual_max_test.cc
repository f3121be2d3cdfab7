// Exactness tests for the lane-parallel residual kernel: its eight running
// maxima, folded at the end, must return the serial std::max fold's bits —
// and leave the relaxed iterate bitwise equal to the serial update loop —
// for every size (empty, shorter than one block, exact blocks, ragged
// tails), with NaN operands, with ±0.0, and when the previous value
// surface is missing (the residual is then measured against zero).

#include "numerics/residual_max.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mfg::numerics {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kSizes[] = {0, 1, 7, 8, 9, 2091};

// The learners' loops the kernel replaced, verbatim.
RelaxResiduals SerialReference(double gamma, std::vector<double>& p,
                               std::vector<double>& h,
                               const std::vector<double>& v,
                               const std::vector<double>& v_prev) {
  RelaxResiduals out;
  for (std::size_t k = 0; k < p.size(); ++k) {
    const double updated = (1.0 - gamma) * p[k] + gamma * h[k];
    out.policy_change =
        std::max(out.policy_change, std::fabs(updated - p[k]));
    p[k] = updated;
    h[k] = updated;
  }
  if (v_prev.size() == v.size()) {
    for (std::size_t k = 0; k < v.size(); ++k) {
      out.value_change =
          std::max(out.value_change, std::fabs(v[k] - v_prev[k]));
    }
  } else {
    for (std::size_t k = 0; k < v.size(); ++k) {
      out.value_change = std::max(out.value_change, std::fabs(v[k]));
    }
  }
  return out;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Deterministic samples in (−scale, scale); `salt` decorrelates fields.
std::vector<double> Samples(std::size_t n, std::uint64_t salt,
                            double scale) {
  std::vector<double> out(n);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ (salt * 0xbf58476d1ce4e5b9ULL);
  for (double& x : out) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double unit =
        static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1).
    x = scale * (2.0 * unit - 1.0);
  }
  return out;
}

struct Fields {
  std::vector<double> p, h, v, v_prev;
};

// Runs the kernel and the serial reference on copies of `in` and checks
// both residuals and the updated p, h bit-for-bit.
void ExpectMatchesSerial(double gamma, const Fields& in) {
  Fields kernel = in;
  Fields serial = in;
  const RelaxResiduals got = RelaxAndMeasureResiduals(
      gamma, kernel.p, kernel.h, kernel.v, kernel.v_prev);
  const RelaxResiduals want =
      SerialReference(gamma, serial.p, serial.h, serial.v, serial.v_prev);
  EXPECT_EQ(Bits(got.policy_change), Bits(want.policy_change))
      << got.policy_change << " vs " << want.policy_change;
  EXPECT_EQ(Bits(got.value_change), Bits(want.value_change))
      << got.value_change << " vs " << want.value_change;
  ASSERT_EQ(kernel.p.size(), serial.p.size());
  for (std::size_t k = 0; k < serial.p.size(); ++k) {
    ASSERT_EQ(Bits(kernel.p[k]), Bits(serial.p[k])) << "p[" << k << "]";
    ASSERT_EQ(Bits(kernel.h[k]), Bits(serial.h[k])) << "h[" << k << "]";
  }
}

Fields SmoothFields(std::size_t n) {
  return {Samples(n, 1, 1.0), Samples(n, 2, 1.0), Samples(n, 3, 50.0),
          Samples(n, 4, 50.0)};
}

TEST(ResidualMaxTest, MatchesSerialFoldAtEverySize) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n = " << n);
    ExpectMatchesSerial(0.35, SmoothFields(n));
    ExpectMatchesSerial(1.0, SmoothFields(n));
  }
}

// The maximum lands in every chain position and in the ragged tail.
TEST(ResidualMaxTest, MaximumAtEveryPosition) {
  for (const std::size_t n : {std::size_t{9}, std::size_t{23}}) {
    for (std::size_t at = 0; at < n; ++at) {
      SCOPED_TRACE(::testing::Message() << "n = " << n << ", at " << at);
      Fields in = SmoothFields(n);
      in.h[at] = 40.0;
      in.v[at] = -900.0;
      ExpectMatchesSerial(0.5, in);
    }
  }
}

TEST(ResidualMaxTest, NanOperandsDropOutLikeStdMax) {
  for (const std::size_t n : kSizes) {
    if (n == 0) continue;
    SCOPED_TRACE(::testing::Message() << "n = " << n);
    Fields in = SmoothFields(n);
    // NaN in every field, at the first element (the serial fold's first
    // operand), at chain positions and at the last (tail) element.
    for (std::size_t k = 0; k < n; k += 5) {
      in.p[k] = kNaN;
      in.v_prev[(k + 2) % n] = kNaN;
    }
    in.h[n - 1] = kNaN;
    in.v[n / 2] = kNaN;
    ExpectMatchesSerial(0.35, in);

    // All operands NaN: the fold never leaves its +0.0 start.
    Fields all_nan{std::vector<double>(n, kNaN), std::vector<double>(n, kNaN),
                   std::vector<double>(n, kNaN), std::vector<double>(n, 1.0)};
    ExpectMatchesSerial(0.35, all_nan);
  }
}

TEST(ResidualMaxTest, SignedZerosFoldToPositiveZero) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n = " << n);
    // Every difference is ±0.0: p == h, v == v_prev with mixed signs.
    Fields in;
    for (std::size_t k = 0; k < n; ++k) {
      const double zero = (k % 3 == 0) ? -0.0 : 0.0;
      in.p.push_back(zero);
      in.h.push_back(-zero);
      in.v.push_back(zero);
      in.v_prev.push_back(-zero);
    }
    ExpectMatchesSerial(0.35, in);
    Fields kernel = in;
    const RelaxResiduals got = RelaxAndMeasureResiduals(
        0.35, kernel.p, kernel.h, kernel.v, kernel.v_prev);
    EXPECT_EQ(Bits(got.policy_change), Bits(0.0));
    EXPECT_EQ(Bits(got.value_change), Bits(0.0));
  }
}

// A previous surface of any other size (the first iteration passes an
// empty one) measures the value residual against zero.
TEST(ResidualMaxTest, SizeMismatchMeasuresAgainstZero) {
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n = " << n);
    Fields empty_prev = SmoothFields(n);
    empty_prev.v_prev.clear();
    ExpectMatchesSerial(0.35, empty_prev);
    Fields longer_prev = SmoothFields(n);
    longer_prev.v_prev.push_back(1e6);
    ExpectMatchesSerial(0.35, longer_prev);

    if (n == 0) continue;
    Fields kernel = SmoothFields(n);
    kernel.v_prev.clear();
    double want = 0.0;
    for (const double x : kernel.v) want = std::max(want, std::fabs(x));
    const RelaxResiduals got = RelaxAndMeasureResiduals(
        0.35, kernel.p, kernel.h, kernel.v, kernel.v_prev);
    EXPECT_EQ(Bits(got.value_change), Bits(want));
  }
}

}  // namespace
}  // namespace mfg::numerics
