// Reduced-precision storage format for the weight-compressed serving path.
//
// Training is fp32 everywhere; at engine plan time the spectral weights can
// be compressed to bf16 and widened back to fp32 inside the contraction
// inner loop. bf16 is the top 16 bits of an IEEE fp32 (8 exponent / 7
// mantissa bits), compressed with round-to-nearest-even on the dropped 16
// bits and widened by a single left shift: ~2.8 decimal digits, relative
// error per weight ≤ 2⁻⁸, and fp32's full exponent range — no finite weight
// overflows or underflows when it is compressed. bf16 is the only 16-bit
// tier (an IEEE binary16 tier was measured no faster than fp32 and, with
// its ±65504 range, could overflow).
//
// The conversion is an exact, deterministic bit manipulation — identical
// results on every ISA tier — so compressed engines keep Tier A (bitwise
// within a fixed ISA) determinism; only the fp32 ↔ bf16 comparison is
// error-bounded (DESIGN.md "Precision tiers").
//
// The bulk entry points dispatch on util::active_isa(): AVX2 vector paths
// bit-identical to the scalar ones (the rounding is integer arithmetic).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "util/common.hpp"

namespace turb::util {

/// Storage precision of engine-prepacked weights. kFp32 is the bitwise
/// serving tier; kBf16 trades bounded relative error for a halved weight
/// working set.
enum class Precision : int { kFp32 = 0, kBf16 = 1 };

[[nodiscard]] const char* precision_name(Precision p) noexcept;

/// Parse "fp32" | "bf16" (throws CheckError, naming the accepted values, on
/// anything else).
[[nodiscard]] Precision parse_precision(const std::string& spec);

/// fp32 → bf16 with round-to-nearest-even; NaNs are quieted, infinities and
/// zeros pass through exactly.
[[nodiscard]] inline std::uint16_t float_to_bf16(float v) noexcept {
  std::uint32_t x = std::bit_cast<std::uint32_t>(v);
  if ((x & 0x7F800000u) == 0x7F800000u && (x & 0x007FFFFFu) != 0u) {
    return static_cast<std::uint16_t>((x >> 16) | 0x0040u);  // quiet the NaN
  }
  x += 0x7FFFu + ((x >> 16) & 1u);
  return static_cast<std::uint16_t>(x >> 16);
}

[[nodiscard]] inline float bf16_to_float(std::uint16_t b) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

/// Bulk fp32 → bf16. Dispatches on util::active_isa(); every tier produces
/// identical bytes (the rounding is exact integer arithmetic).
void compress_bf16(const float* src, std::uint16_t* dst, std::size_t n);

/// Bulk bf16 → fp32 (exact widening).
void decompress_bf16(const std::uint16_t* src, float* dst, std::size_t n);

/// Round-trip fp32 → bf16 → fp32 in place: the values a bf16 engine or
/// checkpoint will actually serve.
void quantize_bf16(float* data, std::size_t n);

}  // namespace turb::util
