#include "nn/gates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace evfl::nn {
namespace {

std::uint32_t bits_of(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

float from_bits(std::uint32_t u) {
  float x = 0.0f;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

/// Every input class the gates can meet: a strided sweep of float bit
/// patterns over the sigmoid's clamp range (2·kTanhClamp, which covers
/// tanh's), both signs, plus ±0, ±clamp, ±inf, NaN and denormals.
std::vector<float> sweep_inputs() {
  std::vector<float> xs;
  const std::uint32_t top = bits_of(2.0f * kTanhClamp);
  for (std::uint32_t u = 0; u <= top; u += 4099) {
    xs.push_back(from_bits(u));
    xs.push_back(-from_bits(u));
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  for (const float x :
       {0.0f, kTanhClamp, 2.0f * kTanhClamp, inf, denorm_min,
        from_bits(0x007fffffu), std::numeric_limits<float>::min(),
        std::numeric_limits<float>::max(), 20.0f, 1e30f}) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  xs.push_back(std::numeric_limits<float>::quiet_NaN());
  xs.push_back(-std::numeric_limits<float>::quiet_NaN());
  return xs;
}

TEST(Gates, ScalarMatchesSimdBitwise) {
  // The array forms run 8 wide with a scalar tail (scalar only without
  // AVX2), so a value must get the same bits on either side of the split.
  const std::vector<float> xs = sweep_inputs();
  std::vector<float> t = xs;
  std::vector<float> s = xs;
  tanh_gates(t.data(), t.size());
  sigmoid_gates(s.data(), s.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(bits_of(t[i]), bits_of(tanh_gate(xs[i]))) << "tanh " << xs[i];
    ASSERT_EQ(bits_of(s[i]), bits_of(sigmoid_gate(xs[i])))
        << "sigmoid " << xs[i];
  }
  // Shifting the split point moves every value to the other form.
  for (std::size_t shift = 1; shift < 8; ++shift) {
    std::vector<float> tail(xs.begin() + static_cast<long>(shift), xs.end());
    tanh_gates(tail.data(), tail.size());
    for (std::size_t i = 0; i < tail.size(); ++i) {
      ASSERT_EQ(bits_of(tail[i]), bits_of(t[i + shift])) << "shift " << shift;
    }
  }
}

TEST(Gates, SaturateAndPropagateNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(tanh_gate(inf), tanh_gate(kTanhClamp));
  EXPECT_EQ(tanh_gate(-inf), -tanh_gate(kTanhClamp));
  EXPECT_EQ(bits_of(tanh_gate(-0.0f)), bits_of(-0.0f));
  EXPECT_TRUE(std::isnan(tanh_gate(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(
      std::isnan(sigmoid_gate(std::numeric_limits<float>::quiet_NaN())));
}

TEST(Gates, CloseToLibm) {
  // Measured over x in [-20, 20] at step 2^-12, against std::tanh and the
  // sign-branched stable σ below: with FMA max |tanh err| is 2.38e-7 (at
  // the saturated tail, where the rational stops at 1 - 2^-22) and max
  // |σ err| 1.79e-7; without FMA (Debug, sanitizer builds) 3.58e-7 and
  // 2.38e-7.  The bounds leave one float ulp of 1 for libm differences.
  double tanh_err = 0.0;
  double sigmoid_err = 0.0;
  for (int i = -20 * 4096; i <= 20 * 4096; ++i) {
    const float x = static_cast<float>(i) / 4096.0f;
    const float sig = x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                                : std::exp(x) / (1.0f + std::exp(x));
    tanh_err = std::max(
        tanh_err, static_cast<double>(std::fabs(tanh_gate(x) - std::tanh(x))));
    sigmoid_err = std::max(
        sigmoid_err, static_cast<double>(std::fabs(sigmoid_gate(x) - sig)));
  }
  EXPECT_LE(tanh_err, 4.2e-7);
  EXPECT_LE(sigmoid_err, 3.0e-7);
}

}  // namespace
}  // namespace evfl::nn
