#include "util/precision.hpp"

#include "util/isa.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define TURBFNO_HAS_AVX2_PRECISION 1
#include <immintrin.h>
#endif

namespace turb::util {

const char* precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kBf16: return "bf16";
  }
  return "?";
}

Precision parse_precision(const std::string& spec) {
  if (spec == "fp32") return Precision::kFp32;
  if (spec == "bf16") return Precision::kBf16;
  TURB_CHECK_MSG(false, "unknown precision '" << spec
                        << "' (expected fp32 | bf16)");
  return Precision::kFp32;  // unreachable
}

namespace {

void compress_bf16_scalar(const float* src, std::uint16_t* dst,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_bf16(src[i]);
}

void decompress_bf16_scalar(const std::uint16_t* src, float* dst,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = bf16_to_float(src[i]);
}

#ifdef TURBFNO_HAS_AVX2_PRECISION

// Vector bf16 paths: the same integer round-to-nearest-even (and NaN
// quieting) as the scalar helpers, eight lanes at a time — bit-identical
// output, so compressed payloads never depend on the dispatch tier.

[[gnu::target("avx2")]] void compress_bf16_avx2(const float* src,
                                                std::uint16_t* dst,
                                                std::size_t n) {
  std::size_t i = 0;
  const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
  const __m256i man_mask = _mm256_set1_epi32(0x007FFFFF);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i quiet = _mm256_set1_epi32(0x0040);
  const __m256i bias = _mm256_set1_epi32(0x7FFF);
  const __m256i one = _mm256_set1_epi32(1);
  for (; i + 8 <= n; i += 8) {
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    // NaN lanes: exponent all ones and mantissa non-zero.
    const __m256i is_exp_ones =
        _mm256_cmpeq_epi32(_mm256_and_si256(x, exp_mask), exp_mask);
    const __m256i man_nonzero = _mm256_xor_si256(
        _mm256_cmpeq_epi32(_mm256_and_si256(x, man_mask), zero),
        _mm256_set1_epi32(-1));
    const __m256i is_nan = _mm256_and_si256(is_exp_ones, man_nonzero);
    const __m256i hi = _mm256_srli_epi32(x, 16);
    const __m256i nan16 = _mm256_or_si256(hi, quiet);
    const __m256i rounded = _mm256_srli_epi32(
        _mm256_add_epi32(
            _mm256_add_epi32(x, bias), _mm256_and_si256(hi, one)),
        16);
    const __m256i r = _mm256_blendv_epi8(rounded, nan16, is_nan);
    // Narrow 8×u32 → 8×u16 (values fit in 16 bits, so packus is exact).
    const __m256i packed = _mm256_packus_epi32(r, r);
    const __m256i lanes = _mm256_permute4x64_epi64(packed, 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_castsi256_si128(lanes));
  }
  compress_bf16_scalar(src + i, dst + i, n - i);
}

[[gnu::target("avx2")]] void decompress_bf16_avx2(const std::uint16_t* src,
                                                  float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i));
    const __m256i wide = _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), wide);
  }
  decompress_bf16_scalar(src + i, dst + i, n - i);
}

#endif  // TURBFNO_HAS_AVX2_PRECISION

}  // namespace

void compress_bf16(const float* src, std::uint16_t* dst, std::size_t n) {
#ifdef TURBFNO_HAS_AVX2_PRECISION
  if (active_isa() == Isa::kAvx2) {
    compress_bf16_avx2(src, dst, n);
    return;
  }
#endif
  compress_bf16_scalar(src, dst, n);
}

void decompress_bf16(const std::uint16_t* src, float* dst, std::size_t n) {
#ifdef TURBFNO_HAS_AVX2_PRECISION
  if (active_isa() == Isa::kAvx2) {
    decompress_bf16_avx2(src, dst, n);
    return;
  }
#endif
  decompress_bf16_scalar(src, dst, n);
}

void quantize_bf16(float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = bf16_to_float(float_to_bf16(data[i]));
  }
}

}  // namespace turb::util
