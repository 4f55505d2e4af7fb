// Determinism-tier contract of the util::isa dispatch layer (ISSUE 7,
// DESIGN.md "Determinism tiers"):
//
//   * Tier B (bounded, cross-ISA): for every vectorized kernel family —
//     gemm_nn/gemm_tn/gemm_nt, the radix-2 c2c butterflies (incl. the
//     Bluestein fallback, which reaches them through its power-of-two
//     sub-plan), the rfft/irfft unpack, and the GELU rows (nn::gelu_rows,
//     bounded by 4·eps·max(1, |x|) per element) — the scalar and AVX2
//     results agree within a small multiple of the rounding error of the
//     accumulation depth. The property suites run odd/edge-tail shapes so
//     every vector-width remainder path (32/16/8/4-wide groups and scalar
//     tails) is exercised.
//   * Tier A (bitwise, per ISA): with the ISA pinned by ScopedIsa, kernel
//     results are bitwise identical across pool widths 1/2/4, masked
//     (mode-pruned) rfft transforms are bitwise identical to unmasked ones
//     on the kept bins, gelu_rows gives every element the same bits at any
//     row length and start offset, and the inference engine's 2-D forward is
//     bitwise equal to the training forward.
//
// Every avx2-side test skips (GTEST_SKIP) when the CPU lacks AVX2+FMA, so
// the suite is green on any host under both forced TURBFNO_ISA settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "fft/plan.hpp"
#include "fft/fftnd.hpp"
#include "fft/real.hpp"
#include "fno/fno.hpp"
#include "infer/engine.hpp"
#include "nn/activation.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/isa.hpp"
#include "util/precision.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb {
namespace {

bool avx2_available() { return util::cpu_supports_avx2(); }

#define SKIP_WITHOUT_AVX2()                                            \
  if (!avx2_available()) {                                             \
    GTEST_SKIP() << "CPU lacks AVX2+FMA; scalar is the only ISA here"; \
  }

// ---------------------------------------------------------------------------
// Dispatch-layer unit tests
// ---------------------------------------------------------------------------

TEST(IsaLayer, ParseAndName) {
  EXPECT_EQ(util::parse_isa("scalar"), util::Isa::kScalar);
  EXPECT_STREQ(util::isa_name(util::Isa::kScalar), "scalar");
  EXPECT_STREQ(util::isa_name(util::Isa::kAvx2), "avx2");
  EXPECT_THROW((void)util::parse_isa("sse9"), CheckError);
  if (avx2_available()) {
    EXPECT_EQ(util::parse_isa("avx2"), util::Isa::kAvx2);
    EXPECT_EQ(util::parse_isa("auto"), util::Isa::kAvx2);
  } else {
    EXPECT_THROW((void)util::parse_isa("avx2"), CheckError);
    EXPECT_EQ(util::parse_isa("auto"), util::Isa::kScalar);
  }
}

TEST(IsaLayer, ActiveIsaIsAlwaysRunnable) {
  const util::Isa isa = util::active_isa();
  if (isa == util::Isa::kAvx2) {
    EXPECT_TRUE(avx2_available());
  }
}

TEST(IsaLayer, ScopedIsaForcesAndRestores) {
  const util::Isa before = util::active_isa();
  {
    util::ScopedIsa forced(util::Isa::kScalar);
    EXPECT_EQ(util::active_isa(), util::Isa::kScalar);
    if (avx2_available()) {
      util::ScopedIsa nested(util::Isa::kAvx2);
      EXPECT_EQ(util::active_isa(), util::Isa::kAvx2);
    }
    EXPECT_EQ(util::active_isa(), util::Isa::kScalar);
  }
  EXPECT_EQ(util::active_isa(), before);
}

TEST(IsaLayer, DispatchCountersAdvance) {
  util::ScopedIsa forced(util::Isa::kScalar);
  const double gemm0 = util::gemm_dispatch_counter(util::Isa::kScalar).value();
  std::vector<float> a(4, 1.0f), b(4, 2.0f), c(4, 0.0f);
  gemm_nn<float>(2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(), 2);
  EXPECT_GT(util::gemm_dispatch_counter(util::Isa::kScalar).value(), gemm0);

  const double act0 = util::act_dispatch_counter(util::Isa::kScalar).value();
  nn::gelu_rows(a.data(), c.data(), 4);
  EXPECT_EQ(util::act_dispatch_counter(util::Isa::kScalar).value(), act0 + 1);
  if (avx2_available()) {
    util::ScopedIsa avx2(util::Isa::kAvx2);
    const double act_avx2 =
        util::act_dispatch_counter(util::Isa::kAvx2).value();
    nn::gelu_cdf_rows(a.data(), c.data(), 4);
    EXPECT_EQ(util::act_dispatch_counter(util::Isa::kAvx2).value(),
              act_avx2 + 1);
  }
}

// ---------------------------------------------------------------------------
// Tier B: GEMM scalar vs AVX2
// ---------------------------------------------------------------------------

struct GemmShape {
  index_t m, n, k;
};

// Shapes straddling every panel-width boundary: n < 8 (pure scalar tail),
// n = 8/16/32/64 (exact vector groups), and odd n with 32-, 8-, and
// sub-8-wide remainders; k odd, even, and 1.
const GemmShape kShapes[] = {{1, 5, 7},   {3, 8, 4},   {2, 9, 5},
                             {4, 16, 1},  {5, 23, 12}, {7, 33, 9},
                             {1, 64, 10}, {13, 17, 19}, {2, 70, 3},
                             {6, 40, 33}};

/// |scalar − avx2| for one C element must stay within a few rounding units
/// of the accumulation: every one of the k multiply-adds (plus the beta
/// term) can shift by one ulp of the running magnitude when FMA fuses it.
template <typename T>
void expect_tier_b(const std::vector<T>& ref, const std::vector<T>& alt,
                   const std::vector<double>& scale, const char* what) {
  constexpr double eps = std::numeric_limits<T>::epsilon();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double bound = 4.0 * eps * scale[i] +
                         4.0 * std::numeric_limits<T>::min();
    EXPECT_NEAR(static_cast<double>(ref[i]), static_cast<double>(alt[i]),
                bound)
        << what << " element " << i;
  }
}

enum class GemmKind { kNn, kTn, kNt };

template <typename T>
void run_gemm(GemmKind kind, const GemmShape& s, T alpha, T beta,
              const std::vector<T>& a, const std::vector<T>& b,
              std::vector<T>& c) {
  switch (kind) {
    case GemmKind::kNn:
      gemm_nn(s.m, s.n, s.k, alpha, a.data(), s.k, b.data(), s.n, beta,
              c.data(), s.n);
      break;
    case GemmKind::kTn:
      gemm_tn(s.m, s.n, s.k, alpha, a.data(), s.m, b.data(), s.n, beta,
              c.data(), s.n);
      break;
    case GemmKind::kNt:
      gemm_nt(s.m, s.n, s.k, alpha, a.data(), s.k, b.data(), s.k, beta,
              c.data(), s.n);
      break;
  }
}

template <typename T>
void gemm_tier_b_case(GemmKind kind, const GemmShape& s, T alpha, T beta,
                      std::uint64_t seed, const char* what) {
  Rng rng(seed);
  const bool a_transposed = kind == GemmKind::kTn;
  const bool b_transposed = kind == GemmKind::kNt;
  std::vector<T> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<T> b(static_cast<std::size_t>(s.k * s.n));
  std::vector<T> c0(static_cast<std::size_t>(s.m * s.n));
  for (auto& v : a) v = static_cast<T>(rng.normal());
  for (auto& v : b) v = static_cast<T>(rng.normal());
  for (auto& v : c0) v = static_cast<T>(rng.normal());

  // Per-element magnitude of the accumulation, in double: Σ_p |α·a·b| per
  // rounding step plus the beta term, times the number of steps.
  const auto a_at = [&](index_t i, index_t p) {
    return a[static_cast<std::size_t>(a_transposed ? p * s.m + i
                                                   : i * s.k + p)];
  };
  const auto b_at = [&](index_t p, index_t j) {
    return b[static_cast<std::size_t>(b_transposed ? j * s.k + p
                                                   : p * s.n + j)];
  };
  std::vector<double> scale(c0.size());
  for (index_t i = 0; i < s.m; ++i) {
    for (index_t j = 0; j < s.n; ++j) {
      double mag = std::abs(static_cast<double>(beta) *
                            c0[static_cast<std::size_t>(i * s.n + j)]);
      for (index_t p = 0; p < s.k; ++p) {
        mag += std::abs(static_cast<double>(alpha) * a_at(i, p) * b_at(p, j));
      }
      scale[static_cast<std::size_t>(i * s.n + j)] =
          static_cast<double>(s.k + 2) * mag;
    }
  }

  std::vector<T> c_scalar = c0;
  {
    util::ScopedIsa forced(util::Isa::kScalar);
    run_gemm(kind, s, alpha, beta, a, b, c_scalar);
  }
  std::vector<T> c_avx2 = c0;
  {
    util::ScopedIsa forced(util::Isa::kAvx2);
    run_gemm(kind, s, alpha, beta, a, b, c_avx2);
  }
  expect_tier_b(c_scalar, c_avx2, scale, what);
}

class GemmIsaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GemmIsaEquivalence, ScalarVsAvx2WithinTierB) {
  SKIP_WITHOUT_AVX2();
  const GemmShape s = kShapes[GetParam()];
  const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(GetParam());
  int variant = 0;
  for (const GemmKind kind : {GemmKind::kNn, GemmKind::kTn, GemmKind::kNt}) {
    for (const double beta : {0.0, 1.0, 0.5}) {
      ++variant;
      gemm_tier_b_case<float>(kind, s, 1.25f, static_cast<float>(beta),
                              seed * 100 + static_cast<std::uint64_t>(variant),
                              "float gemm");
      gemm_tier_b_case<double>(kind, s, 1.25, beta,
                               seed * 100 +
                                   static_cast<std::uint64_t>(50 + variant),
                               "double gemm");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmIsaEquivalence,
                         ::testing::Range(0, static_cast<int>(std::size(
                                                 kShapes))));

// ---------------------------------------------------------------------------
// Tier B: c2c FFT scalar vs AVX2 (pow2 butterflies + Bluestein fallback)
// ---------------------------------------------------------------------------

class FftIsaEquivalence : public ::testing::TestWithParam<index_t> {};

TEST_P(FftIsaEquivalence, ForwardAndInverseWithinTierB) {
  SKIP_WITHOUT_AVX2();
  const index_t n = GetParam();
  Rng rng(7000 + static_cast<std::uint64_t>(n));
  std::vector<std::complex<float>> x(static_cast<std::size_t>(n));
  double sum_abs = 0.0;
  for (auto& v : x) {
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
    sum_abs += std::abs(std::complex<double>(v));
  }
  // Accumulation depth: log2 of the (sub-)transform length, with extra
  // headroom for the three chirp products and two transforms of the
  // Bluestein path. Every output bin is a ±1-weighted sum of the inputs, so
  // Σ|x| bounds the running magnitude at every stage.
  const index_t m = fft::is_pow2(n) ? n : fft::next_pow2(2 * n - 1);
  const double depth = 3.0 * (std::log2(static_cast<double>(m)) + 4.0);
  const double eps = std::numeric_limits<float>::epsilon();
  const double bound = 4.0 * eps * depth * sum_abs;

  fft::PlanC2C<float> plan(n);
  for (const bool inverse : {false, true}) {
    std::vector<std::complex<float>> y_scalar = x;
    {
      util::ScopedIsa forced(util::Isa::kScalar);
      inverse ? plan.inverse(y_scalar.data()) : plan.forward(y_scalar.data());
    }
    std::vector<std::complex<float>> y_avx2 = x;
    {
      util::ScopedIsa forced(util::Isa::kAvx2);
      inverse ? plan.inverse(y_avx2.data()) : plan.forward(y_avx2.data());
    }
    const double dir_bound =
        inverse ? bound / static_cast<double>(n) : bound;
    for (index_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(std::complex<double>(y_scalar[k]) -
                           std::complex<double>(y_avx2[k])),
                  0.0, dir_bound)
          << "n=" << n << " inverse=" << inverse << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftIsaEquivalence,
                         ::testing::Values(2, 4, 8, 16, 64, 128, 256,
                                           // Bluestein lengths
                                           6, 10, 12, 20));

// ---------------------------------------------------------------------------
// Tier B: rfft / irfft scalar vs AVX2
// ---------------------------------------------------------------------------

class RealFftIsaEquivalence : public ::testing::TestWithParam<index_t> {};

TEST_P(RealFftIsaEquivalence, RfftAndIrfftWithinTierB) {
  SKIP_WITHOUT_AVX2();
  const index_t n = GetParam();
  const index_t h = n / 2;
  Rng rng(9000 + static_cast<std::uint64_t>(n));
  std::vector<float> in(static_cast<std::size_t>(n));
  double sum_abs = 0.0;
  for (auto& v : in) {
    v = static_cast<float>(rng.normal());
    sum_abs += std::abs(static_cast<double>(v));
  }
  const index_t m = (h == 0 || fft::is_pow2(h)) ? std::max<index_t>(h, 1)
                                                : fft::next_pow2(2 * h - 1);
  const double depth =
      3.0 * (std::log2(static_cast<double>(std::max<index_t>(m, 2))) + 6.0);
  const double eps = std::numeric_limits<float>::epsilon();
  const double bound = 4.0 * eps * depth * sum_abs;

  const auto run_rfft = [&](util::Isa isa) {
    util::ScopedIsa forced(isa);
    std::vector<std::complex<float>> out(static_cast<std::size_t>(h + 1));
    fft::rfft(in.data(), out.data(), n);
    return out;
  };
  const auto spec_scalar = run_rfft(util::Isa::kScalar);
  const auto spec_avx2 = run_rfft(util::Isa::kAvx2);
  for (index_t k = 0; k <= h; ++k) {
    EXPECT_NEAR(std::abs(std::complex<double>(spec_scalar[k]) -
                         std::complex<double>(spec_avx2[k])),
                0.0, bound)
        << "rfft n=" << n << " k=" << k;
  }

  // irfft: feed the scalar spectrum to both ISAs; spectrum magnitude is
  // O(Σ|x|) per bin, and the inverse renormalises by 1/n.
  const auto run_irfft = [&](util::Isa isa) {
    util::ScopedIsa forced(isa);
    std::vector<float> out(static_cast<std::size_t>(n));
    fft::irfft(spec_scalar.data(), out.data(), n);
    return out;
  };
  const auto time_scalar = run_irfft(util::Isa::kScalar);
  const auto time_avx2 = run_irfft(util::Isa::kAvx2);
  for (index_t k = 0; k < n; ++k) {
    EXPECT_NEAR(static_cast<double>(time_scalar[k]),
                static_cast<double>(time_avx2[k]), bound)
        << "irfft n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RealFftIsaEquivalence,
                         ::testing::Values(2, 4, 6, 8, 10, 16, 20, 40, 64,
                                           128));

// ---------------------------------------------------------------------------
// Tier A: masked rfft bitwise-identical to full on kept bins, per ISA
// ---------------------------------------------------------------------------

void check_masked_rfft_bitwise(util::Isa isa) {
  util::ScopedIsa forced(isa);
  for (const index_t n : {index_t{16}, index_t{64}, index_t{20}}) {
    const index_t h = n / 2;
    Rng rng(1300 + static_cast<std::uint64_t>(n));
    std::vector<float> in(static_cast<std::size_t>(n));
    for (auto& v : in) v = static_cast<float>(rng.normal());
    std::vector<std::complex<float>> full(static_cast<std::size_t>(h + 1));
    fft::rfft(in.data(), full.data(), n);
    // Keep a ragged subset: bins 0, odd bins, and the Nyquist bin.
    std::vector<std::uint8_t> keep(static_cast<std::size_t>(h + 1), 0);
    for (index_t k = 0; k <= h; ++k) {
      keep[static_cast<std::size_t>(k)] =
          (k == 0 || k == h || (k % 2) == 1) ? 1 : 0;
    }
    const std::complex<float> sentinel(1e30f, -1e30f);
    std::vector<std::complex<float>> masked(static_cast<std::size_t>(h + 1),
                                            sentinel);
    fft::rfft(in.data(), masked.data(), n, keep.data());
    for (index_t k = 0; k <= h; ++k) {
      if (keep[static_cast<std::size_t>(k)]) {
        EXPECT_EQ(0, std::memcmp(&full[static_cast<std::size_t>(k)],
                                 &masked[static_cast<std::size_t>(k)],
                                 sizeof(std::complex<float>)))
            << util::isa_name(isa) << " n=" << n << " kept bin " << k;
      } else {
        EXPECT_EQ(0, std::memcmp(&sentinel,
                                 &masked[static_cast<std::size_t>(k)],
                                 sizeof(std::complex<float>)))
            << util::isa_name(isa) << " n=" << n << " skipped bin " << k
            << " was written";
      }
    }
  }
}

TEST(IsaTierA, MaskedRfftBitwiseScalar) {
  check_masked_rfft_bitwise(util::Isa::kScalar);
}

TEST(IsaTierA, MaskedRfftBitwiseAvx2) {
  SKIP_WITHOUT_AVX2();
  check_masked_rfft_bitwise(util::Isa::kAvx2);
}

// ---------------------------------------------------------------------------
// Tier B: GELU scalar (std::erf) vs AVX2 (rational erf)
// ---------------------------------------------------------------------------

/// Dense grid on [-20, 20] (steps of 2^-10, so every saturation and
/// transition region is sampled) plus the special inputs: ±0, subnormals,
/// both sides of the erf clamp at |x| = 4√2, the float extremes, ±inf, NaN.
std::vector<float> gelu_sweep_inputs() {
  std::vector<float> xs;
  for (int i = -20 * 1024; i <= 20 * 1024; ++i) {
    xs.push_back(static_cast<float>(i) / 1024.0f);
  }
  const float kInf = std::numeric_limits<float>::infinity();
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const float kMin = std::numeric_limits<float>::min();
  const float kMax = std::numeric_limits<float>::max();
  const float k4Sqrt2 = 4.0f * std::sqrt(2.0f);
  for (const float v :
       {0.0f, kDenorm, 1e-40f, kMin / 2.0f, kMin, 1e-20f, 1e-7f,
        std::nextafter(k4Sqrt2, 0.0f), k4Sqrt2,
        std::nextafter(k4Sqrt2, kInf), 6.0f, 30.0f, 1e10f, kMax, kInf}) {
    xs.push_back(v);
    xs.push_back(-v);
  }
  xs.push_back(std::numeric_limits<float>::quiet_NaN());
  xs.push_back(-std::numeric_limits<float>::quiet_NaN());
  return xs;
}

/// Run one of the act-family kernels over `xs` under a forced ISA.
std::vector<float> run_act(util::Isa isa, const std::vector<float>& xs,
                           void (*kernel)(const float*, float*, index_t)) {
  util::ScopedIsa forced(isa);
  std::vector<float> out(xs.size());
  kernel(xs.data(), out.data(), static_cast<index_t>(xs.size()));
  return out;
}

/// Scalar vs avx2 over the sweep: the same non-finite class on every input
/// (NaN stays NaN, gelu(-inf) is NaN as with std::erf, gelu(+inf) = +inf),
/// and |Δ| ≤ 4·eps·max(1, |x|) on every finite result — or 4·eps flat for
/// Φ, which erf reaches without the x factor. The bound covers a few ulp of
/// erf scaled by GELU's 0.5·x factor; the measured maxima on this sweep are
/// 1.88 (gelu_rows) and 1.00 (gelu_cdf_rows).
void expect_act_tier_b(void (*kernel)(const float*, float*, index_t),
                       bool scale_by_x, const char* what) {
  const std::vector<float> xs = gelu_sweep_inputs();
  const std::vector<float> ref = run_act(util::Isa::kScalar, xs, kernel);
  const std::vector<float> alt = run_act(util::Isa::kAvx2, xs, kernel);
  constexpr double eps = std::numeric_limits<float>::epsilon();
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    ASSERT_EQ(std::isnan(ref[i]), std::isnan(alt[i]))
        << what << " x=" << x << " scalar=" << ref[i] << " avx2=" << alt[i];
    ASSERT_EQ(std::isinf(ref[i]), std::isinf(alt[i]))
        << what << " x=" << x << " scalar=" << ref[i] << " avx2=" << alt[i];
    if (!std::isfinite(ref[i])) {
      if (std::isinf(ref[i])) {
        EXPECT_EQ(ref[i], alt[i]) << what << " x=" << x;
      }
      continue;
    }
    const double scale =
        scale_by_x ? eps * std::max(1.0, std::abs(static_cast<double>(x)))
                   : eps;
    const double rel =
        std::abs(static_cast<double>(ref[i]) - static_cast<double>(alt[i])) /
        scale;
    worst = std::max(worst, rel);
    EXPECT_LE(rel, 4.0) << what << " x=" << x << " scalar=" << ref[i]
                        << " avx2=" << alt[i];
  }
  ::testing::Test::RecordProperty("worst_delta_over_eps_scale",
                                  std::to_string(worst));
}

TEST(GeluIsaEquivalence, GeluRowsWithinTierB) {
  SKIP_WITHOUT_AVX2();
  expect_act_tier_b(nn::gelu_rows, /*scale_by_x=*/true, "gelu_rows");
}

TEST(GeluIsaEquivalence, GeluCdfRowsWithinTierB) {
  SKIP_WITHOUT_AVX2();
  expect_act_tier_b(nn::gelu_cdf_rows, /*scale_by_x=*/false,
                    "gelu_cdf_rows");
}

TEST(GeluIsaEquivalence, NonFiniteClassMatchesStdErf) {
  SKIP_WITHOUT_AVX2();
  const float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> xs = {kInf, -kInf,
                                 std::numeric_limits<float>::quiet_NaN()};
  for (const util::Isa isa : {util::Isa::kScalar, util::Isa::kAvx2}) {
    const std::vector<float> y = run_act(isa, xs, nn::gelu_rows);
    EXPECT_EQ(y[0], kInf) << util::isa_name(isa);
    EXPECT_TRUE(std::isnan(y[1])) << util::isa_name(isa) << " gelu(-inf)";
    EXPECT_TRUE(std::isnan(y[2])) << util::isa_name(isa) << " gelu(NaN)";
  }
}

// ---------------------------------------------------------------------------
// Tier A: bitwise identity across pool widths 1/2/4, per forced ISA
// ---------------------------------------------------------------------------

void check_gemm_thread_invariance(util::Isa isa) {
  util::ScopedIsa forced(isa);
  // Large enough to trip the row-parallel path (m·n·k ≥ 2^15, m ≥ 2), with
  // a ragged n so vector groups, 8-wide panels and scalar tails all appear.
  const index_t m = 8, n = 70, k = 64;
  Rng rng(17);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  std::vector<std::vector<float>> results;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    gemm_nn(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
    results.push_back(std::move(c));
  }
  for (std::size_t w = 1; w < results.size(); ++w) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[w].data(),
                             results[0].size() * sizeof(float)))
        << util::isa_name(isa) << " gemm diverged at width index " << w;
  }
}

void check_rfftn_thread_invariance(util::Isa isa) {
  util::ScopedIsa forced(isa);
  Tensor<float> x({2, 3, 16, 16});
  Rng rng(23);
  for (index_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal());
  }
  std::vector<Tensor<std::complex<float>>> specs;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    specs.push_back(fft::rfftn(x, 2));
  }
  for (std::size_t w = 1; w < specs.size(); ++w) {
    ASSERT_EQ(specs[0].shape(), specs[w].shape());
    EXPECT_EQ(0, std::memcmp(specs[0].data(), specs[w].data(),
                             static_cast<std::size_t>(specs[0].size()) *
                                 sizeof(std::complex<float>)))
        << util::isa_name(isa) << " rfftn diverged at width index " << w;
  }
}

TEST(IsaTierA, GemmBitwiseAcrossThreadsScalar) {
  check_gemm_thread_invariance(util::Isa::kScalar);
}

TEST(IsaTierA, GemmBitwiseAcrossThreadsAvx2) {
  SKIP_WITHOUT_AVX2();
  check_gemm_thread_invariance(util::Isa::kAvx2);
}

/// gelu_rows over every row length 1–19 at every start offset of a buffer,
/// out of place and in place, is bitwise equal to one call per element: the
/// ragged-tail lanes run the same body as full vectors, so the bits never
/// depend on where a row starts or ends (training chunks rows by the pool
/// partition, the engine by column tiles).
void check_gelu_rows_position_invariance(util::Isa isa) {
  util::ScopedIsa forced(isa);
  constexpr index_t kLen = 48;
  Rng rng(29);
  std::vector<float> x(static_cast<std::size_t>(kLen));
  for (auto& v : x) v = static_cast<float>(4.0 * rng.normal());
  std::vector<float> ref(x.size());
  for (index_t i = 0; i < kLen; ++i) nn::gelu_rows(&x[i], &ref[i], 1);
  for (index_t n = 1; n <= 19; ++n) {
    for (index_t off = 0; off + n <= kLen; ++off) {
      std::vector<float> out(x.size(), -7.0f);
      nn::gelu_rows(x.data() + off, out.data() + off, n);
      std::vector<float> inplace = x;
      nn::gelu_rows(inplace.data() + off, inplace.data() + off, n);
      for (index_t i = 0; i < kLen; ++i) {
        const bool inside = i >= off && i < off + n;
        const float want_out = inside ? ref[i] : -7.0f;
        const float want_inplace = inside ? ref[i] : x[i];
        ASSERT_EQ(0, std::memcmp(&want_out, &out[i], sizeof(float)))
            << util::isa_name(isa) << " n=" << n << " off=" << off
            << " i=" << i;
        ASSERT_EQ(0, std::memcmp(&want_inplace, &inplace[i], sizeof(float)))
            << util::isa_name(isa) << " in place n=" << n << " off=" << off
            << " i=" << i;
      }
    }
  }
}

TEST(IsaTierA, GeluRowsPositionInvariantScalar) {
  check_gelu_rows_position_invariance(util::Isa::kScalar);
}

TEST(IsaTierA, GeluRowsPositionInvariantAvx2) {
  SKIP_WITHOUT_AVX2();
  check_gelu_rows_position_invariance(util::Isa::kAvx2);
}

/// The inference engine's 2-D dense forward (fused lift / skip / projection
/// GELU epilogues over column tiles) is bitwise equal to the training
/// forward (Gelu layers over pool chunks) under the forced ISA. The
/// 10×14 grid makes the tile widths ragged (140 = 2·64 + 12).
void check_engine_forward_bitwise(util::Isa isa) {
  util::ScopedIsa forced(isa);
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 3;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  for (const Shape& shape : {Shape{2, 3, 16, 16}, Shape{2, 3, 10, 14}}) {
    Rng rng(31);
    fno::Fno model(cfg, rng);
    Tensor<float> x(shape);
    x.fill_normal(rng, 0.0, 1.0);
    const Tensor<float> ref = model.forward(x);
    infer::InferenceEngine engine(model);
    engine.plan(shape);
    Tensor<float> y;
    engine.forward(x, y);
    ASSERT_EQ(ref.shape(), y.shape());
    EXPECT_EQ(0, std::memcmp(ref.data(), y.data(),
                             static_cast<std::size_t>(ref.size()) *
                                 sizeof(float)))
        << util::isa_name(isa) << " engine forward differs from training on "
        << shape[2] << "x" << shape[3];
  }
}

TEST(IsaTierA, EngineForward2dBitwiseScalar) {
  check_engine_forward_bitwise(util::Isa::kScalar);
}

TEST(IsaTierA, EngineForward2dBitwiseAvx2) {
  SKIP_WITHOUT_AVX2();
  check_engine_forward_bitwise(util::Isa::kAvx2);
}

TEST(IsaTierA, RfftnBitwiseAcrossThreadsScalar) {
  check_rfftn_thread_invariance(util::Isa::kScalar);
}

TEST(IsaTierA, RfftnBitwiseAcrossThreadsAvx2) {
  SKIP_WITHOUT_AVX2();
  check_rfftn_thread_invariance(util::Isa::kAvx2);
}

/// The bf16 bulk conversions are exact integer arithmetic, so the avx2 and
/// scalar tiers must produce identical bytes — ragged tails, round-to-even
/// ties, NaN quieting, infinities, zeros and subnormals included.
TEST(IsaTierA, Bf16BulkConversionIdenticalAcrossIsas) {
  SKIP_WITHOUT_AVX2();
  std::vector<float> src = {0.0f,
                            -0.0f,
                            1.0f,
                            std::bit_cast<float>(0x3F808000u),  // tie, even
                            std::bit_cast<float>(0x3F818000u),  // tie, odd
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::bit_cast<float>(0x7F800001u),  // sNaN
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max()};
  Rng rng(91);
  while (src.size() < 37) src.push_back(static_cast<float>(rng.normal()));
  const auto convert = [&src](util::Isa isa) {
    util::ScopedIsa forced(isa);
    std::vector<std::uint16_t> packed(src.size());
    util::compress_bf16(src.data(), packed.data(), src.size());
    std::vector<float> widened(src.size());
    util::decompress_bf16(packed.data(), widened.data(), src.size());
    return std::make_pair(packed, widened);
  };
  const auto [p_scalar, w_scalar] = convert(util::Isa::kScalar);
  const auto [p_avx2, w_avx2] = convert(util::Isa::kAvx2);
  EXPECT_EQ(p_scalar, p_avx2);
  ASSERT_EQ(0, std::memcmp(w_scalar.data(), w_avx2.data(),
                           w_scalar.size() * sizeof(float)));
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(p_scalar[i], util::float_to_bf16(src[i])) << "i=" << i;
  }
}

}  // namespace
}  // namespace turb
