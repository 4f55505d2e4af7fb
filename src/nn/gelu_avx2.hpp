// Explicit AVX2/FMA GELU row kernels behind util::isa runtime dispatch
// (nn/activation.cpp holds the scalar reference and the dispatch site,
// nn::gelu_rows / nn::gelu_cdf_rows).
//
// Compiled with per-function target attributes, so this header is safe to
// include from TUs built without -mavx2; the functions must only be CALLED
// when util::cpu_supports_avx2() is true (util::active_isa() guarantees it).
//
// erf is the clamped odd/even rational approximation of the Eigen /
// TensorFlow float erf: the argument is clamped to [-4, 4] (erf is ±1 to
// float precision beyond), p(x)/q(x) is evaluated in Horner form with FMA,
// and the quotient is clamped to [-1, 1]. Both clamps keep a NaN argument
// NaN, and the result clamp makes erf(±4) exactly ±1, so ±inf inputs give
// the same non-finite class as std::erf (gelu(+inf) = +inf,
// gelu(-inf) = -inf·0 = NaN).
//
// Determinism properties (DESIGN.md "Determinism tiers"):
//
//   * Within the avx2 ISA the kernels are bitwise deterministic per element:
//     every lane runs the same instruction sequence on its own element, and
//     a ragged tail of n mod 8 elements runs the same vector body on a
//     zero-padded register (masked load/store) instead of a scalar formula.
//     An element's bits therefore never depend on its row position, the row
//     length, or how the caller chunks the work (training chunks by the
//     pool partition, the inference engine by 64-wide column tiles).
//   * Against the scalar kernels (std::erf) the results differ by a few
//     rounding units; tests/test_isa.cpp bounds the GELU difference by
//     4·eps·max(1, |x|) (Tier B).
#pragma once

#include "util/common.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define TURBFNO_HAS_AVX2_GELU 1

#include <immintrin.h>

namespace turb::nn::detail::avx2 {

/// 8-lane erf (see file header). max/min take the constant as the FIRST
/// operand: on a NaN lane they return the second operand, the NaN.
[[gnu::target("avx2,fma")]] inline __m256 erf8(__m256 a) {
  const __m256 x = _mm256_min_ps(_mm256_set1_ps(4.0f),
                                 _mm256_max_ps(_mm256_set1_ps(-4.0f), a));
  const __m256 x2 = _mm256_mul_ps(x, x);

  // Odd numerator p(x) = x · P(x²).
  __m256 p = _mm256_fmadd_ps(x2, _mm256_set1_ps(-2.72614225801306e-10f),
                             _mm256_set1_ps(2.77068142495902e-08f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(-2.10102402082508e-06f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(-5.69250639462346e-05f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(-7.34990630326855e-04f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(-2.95459980854025e-03f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(-1.60960333262415e-02f));
  p = _mm256_mul_ps(x, p);

  // Even denominator q(x) = Q(x²).
  __m256 q = _mm256_fmadd_ps(x2, _mm256_set1_ps(-1.45660718464996e-05f),
                             _mm256_set1_ps(-2.13374055278905e-04f));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(-1.68282697438203e-03f));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(-7.37332916720468e-03f));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(-1.42647390514189e-02f));

  const __m256 r = _mm256_div_ps(p, q);
  return _mm256_min_ps(_mm256_set1_ps(1.0f),
                       _mm256_max_ps(_mm256_set1_ps(-1.0f), r));
}

/// GELU over 8 lanes with the scalar rounding chain
/// (0.5·v)·(1 + erf(v·(1/√2))) — no FMA outside the erf polynomial.
[[gnu::target("avx2,fma")]] inline __m256 gelu8(__m256 v) {
  const __m256 half_v = _mm256_mul_ps(_mm256_set1_ps(0.5f), v);
  const __m256 e =
      erf8(_mm256_mul_ps(v, _mm256_set1_ps(0.70710678118654752f)));
  return _mm256_mul_ps(half_v, _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}

/// Φ(v) = 0.5·(1 + erf(v·(1/√2))) over 8 lanes — the GELU backward's cdf,
/// through the same erf8 the forward uses.
[[gnu::target("avx2,fma")]] inline __m256 cdf8(__m256 v) {
  const __m256 e =
      erf8(_mm256_mul_ps(v, _mm256_set1_ps(0.70710678118654752f)));
  return _mm256_mul_ps(_mm256_set1_ps(0.5f),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}

/// out[i] = f(in[i]) for i < n, in place allowed. The n mod 8 tail runs the
/// full vector body on a zero-padded masked load (see file header).
template <__m256 (*F)(__m256)>
[[gnu::target("avx2,fma")]] inline void map_rows(const float* in, float* out,
                                                 index_t n) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, F(_mm256_loadu_ps(in + i)));
  }
  if (i < n) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - i)), lane);
    _mm256_maskstore_ps(out + i, mask, F(_mm256_maskload_ps(in + i, mask)));
  }
}

[[gnu::target("avx2,fma")]] inline void gelu_rows(const float* in, float* out,
                                                  index_t n) {
  map_rows<gelu8>(in, out, n);
}

[[gnu::target("avx2,fma")]] inline void cdf_rows(const float* in, float* out,
                                                 index_t n) {
  map_rows<cdf8>(in, out, n);
}

}  // namespace turb::nn::detail::avx2

#endif  // x86
