// The LSTM gate nonlinearities: the one tanh and sigmoid that training
// (Lstm::forward), evaluation (apply_activation) and serving
// (forecast::Engine) all evaluate, so the three cannot drift apart.
//
// tanh is a clamped odd rational P13(x)/Q6(x) (the classic
// single-precision minimax fit used by several inference runtimes; |err|
// is a few float ulp across the clamp range) and sigmoid is the tanh
// half-angle identity σ(x) = ½·tanh(½x) + ½.  The scalar forms fuse a
// multiply-add exactly where the 8-wide forms do (both under __FMA__), so
// a value gets the same bits whichever form evaluates it: an array's
// 8-wide main loop and its scalar tail agree, and results never depend on
// how a row is split across them.  NaN propagates, ±inf saturates to
// ±tanh(kTanhClamp).
#pragma once

#include <cmath>
#include <cstddef>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace evfl::nn {

constexpr float kTanhClamp = 7.90531110763549805f;
constexpr float kTanhA1 = 4.89352455891786e-03f;
constexpr float kTanhA3 = 6.37261928875436e-04f;
constexpr float kTanhA5 = 1.48572235717979e-05f;
constexpr float kTanhA7 = 5.12229709037114e-08f;
constexpr float kTanhA9 = -8.60467152213735e-11f;
constexpr float kTanhA11 = 2.00018790482477e-13f;
constexpr float kTanhA13 = -2.76076847742355e-16f;
constexpr float kTanhB0 = 4.89352518554385e-03f;
constexpr float kTanhB2 = 2.26843463243900e-03f;
constexpr float kTanhB4 = 1.18534705686654e-04f;
constexpr float kTanhB6 = 1.19825839466702e-06f;

/// a·b + c, fused exactly when the 8-wide mul_add is.
inline float mul_add(float a, float b, float c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

inline float tanh_gate(float x) {
  // Operand order mirrors _mm256_min_ps(clamp, x) / _mm256_max_ps(-clamp,
  // x): a NaN x falls through both compares.
  x = kTanhClamp < x ? kTanhClamp : x;
  x = -kTanhClamp > x ? -kTanhClamp : x;
  const float x2 = x * x;
  float p = kTanhA13;
  p = mul_add(p, x2, kTanhA11);
  p = mul_add(p, x2, kTanhA9);
  p = mul_add(p, x2, kTanhA7);
  p = mul_add(p, x2, kTanhA5);
  p = mul_add(p, x2, kTanhA3);
  p = mul_add(p, x2, kTanhA1);
  float q = kTanhB6;
  q = mul_add(q, x2, kTanhB4);
  q = mul_add(q, x2, kTanhB2);
  q = mul_add(q, x2, kTanhB0);
  return (p * x) / q;
}

inline float sigmoid_gate(float x) {
  return mul_add(0.5f, tanh_gate(0.5f * x), 0.5f);
}

#if defined(__AVX2__)

inline __m256 mul_add(__m256 a, __m256 b, __m256 c) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

inline __m256 tanh_gate(__m256 x) {
  const __m256 clamp = _mm256_set1_ps(kTanhClamp);
  x = _mm256_max_ps(_mm256_sub_ps(_mm256_setzero_ps(), clamp),
                    _mm256_min_ps(clamp, x));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhA13);
  p = mul_add(p, x2, _mm256_set1_ps(kTanhA11));
  p = mul_add(p, x2, _mm256_set1_ps(kTanhA9));
  p = mul_add(p, x2, _mm256_set1_ps(kTanhA7));
  p = mul_add(p, x2, _mm256_set1_ps(kTanhA5));
  p = mul_add(p, x2, _mm256_set1_ps(kTanhA3));
  p = mul_add(p, x2, _mm256_set1_ps(kTanhA1));
  __m256 q = _mm256_set1_ps(kTanhB6);
  q = mul_add(q, x2, _mm256_set1_ps(kTanhB4));
  q = mul_add(q, x2, _mm256_set1_ps(kTanhB2));
  q = mul_add(q, x2, _mm256_set1_ps(kTanhB0));
  return _mm256_div_ps(_mm256_mul_ps(p, x), q);
}

inline __m256 sigmoid_gate(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5f);
  return mul_add(half, tanh_gate(_mm256_mul_ps(half, x)), half);
}

#endif  // __AVX2__

/// x[0..n) = tanh(x[0..n)) in place.
inline void tanh_gates(float* x, std::size_t n) {
  std::size_t k = 0;
#if defined(__AVX2__)
  for (; k + 8 <= n; k += 8) {
    _mm256_storeu_ps(x + k, tanh_gate(_mm256_loadu_ps(x + k)));
  }
#endif
  for (; k < n; ++k) x[k] = tanh_gate(x[k]);
}

/// x[0..n) = σ(x[0..n)) in place.
inline void sigmoid_gates(float* x, std::size_t n) {
  std::size_t k = 0;
#if defined(__AVX2__)
  for (; k + 8 <= n; k += 8) {
    _mm256_storeu_ps(x + k, sigmoid_gate(_mm256_loadu_ps(x + k)));
  }
#endif
  for (; k < n; ++k) x[k] = sigmoid_gate(x[k]);
}

}  // namespace evfl::nn
