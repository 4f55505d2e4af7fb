// Complex-to-complex FFT plans.
//
// Power-of-two lengths use an iterative radix-2 Cooley–Tukey transform with
// precomputed bit-reversal and twiddle tables. Arbitrary lengths fall back to
// Bluestein's chirp-z algorithm (needed for the length-10 temporal axis of
// the 3D FNO). Twiddles are always computed in double precision.
//
// Normalisation convention (NumPy/PyTorch): forward is unscaled, inverse
// divides by n.
//
// The radix-2 butterfly loop dispatches per execute() call on
// util::active_isa(): the scalar loop below is the reference, the AVX2/FMA
// stage kernel in fft/kernels_avx2.hpp the fast path. The AVX2 path reads
// per-stage contiguous twiddle tables (stage_tw_, copied bitwise from
// twiddle_ at plan build) instead of the strided twiddle_[j*step] walk.
// Bluestein lengths reach the dispatch through their power-of-two sub-plan.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <numbers>
#include <type_traits>
#include <vector>

#include "fft/kernels_avx2.hpp"
#include "util/common.hpp"
#include "util/isa.hpp"

namespace turb::fft {

inline bool is_pow2(index_t n) { return n > 0 && (n & (n - 1)) == 0; }

inline index_t next_pow2(index_t n) {
  index_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// ---- Lane-per-line batching ------------------------------------------------
//
// The batched execution path transforms B independent lines at once from a
// lane-interleaved workspace (element j of lane l at data[j*nlanes + l]):
// every butterfly stage, Bluestein chirp multiply, and rfft/irfft pack/unpack
// bin is evaluated across lanes with the per-position twiddle broadcast, so
// each lane executes the identical per-line operation sequence. A line's
// bits therefore do not depend on how many lanes share its batch (batch
// occupancy invariance) — full batches, ragged tails, and the single-line
// path all agree bitwise per ISA tier, which is what keeps the Tier A
// determinism contract (and the scalar-tier seed fixture CRC) intact while
// the line grouping changes with thread count and mode pruning.

/// Upper bound on lanes any batched path may request; batch scratch sized
/// with this stays valid when the active ISA is switched after planning.
inline constexpr index_t kMaxLanes = 8;

/// Lanes per batched line sweep for element type T on the given ISA tier:
/// one SIMD register of lanes on avx2 (8 f32 / 4 f64), a fixed 4-row block
/// on the scalar tier (only the real-row drivers batch there, and their
/// scalar body runs each row through the single-line kernel).
template <typename T>
index_t lane_count(util::Isa isa) {
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if (isa == util::Isa::kAvx2) {
    return std::is_same_v<T, float> ? index_t{8} : index_t{4};
  }
#else
  (void)isa;
#endif
  return 4;
}

template <typename T>
class PlanC2C {
 public:
  using cpx = std::complex<T>;

  explicit PlanC2C(index_t n) : n_(n) {
    TURB_CHECK_MSG(n >= 1, "FFT length must be positive");
    if (is_pow2(n_)) {
      init_radix2();
    } else {
      init_bluestein();
    }
    init_real_twiddles();
  }

  [[nodiscard]] index_t size() const { return n_; }

  /// Unpack twiddles of the real transform of length 2n that runs on this
  /// half-length plan (fft/real.hpp): rfft_twiddles()[k] = e^(-2πik/2n) for
  /// k ≤ n, irfft_twiddles()[k] = e^(2πik/2n) for k < n. Built once with
  /// the plan, so every real transform of one length reads one table.
  [[nodiscard]] const cpx* rfft_twiddles() const { return rfft_tw_.data(); }
  [[nodiscard]] const cpx* irfft_twiddles() const { return irfft_tw_.data(); }

  /// Elements of the caller's `work` buffer below: the Bluestein
  /// convolution buffer, none at radix-2 lengths.
  [[nodiscard]] index_t work_size() const { return sub_ ? m_ : 0; }

  /// In-place forward DFT (unscaled): X_k = sum_j x_j e^{-2πijk/n}.
  /// `work` (work_size() elements) is the Bluestein buffer; without it a
  /// thread-local buffer is grown on first use, so callers with a
  /// no-allocation contract (the line loops) pass their own.
  void forward(cpx* x, cpx* work = nullptr) const {
    execute(x, /*inverse=*/false, work);
  }

  /// In-place inverse DFT (scaled by 1/n).
  void inverse(cpx* x, cpx* work = nullptr) const {
    execute(x, /*inverse=*/true, work);
  }

  /// Lane-per-line batched transforms over `nlanes` independent lines held
  /// lane-interleaved in `x` (element j of lane l at x[j*nlanes + l]).
  /// Every lane's result is bitwise identical to running forward()/inverse()
  /// on that line alone under the same ISA tier (batch occupancy invariance;
  /// see the header comment). nlanes must be in [1, kMaxLanes]; `work` as
  /// for forward() (a one-lane batch is the single-line transform).
  void forward_batch(cpx* x, index_t nlanes, cpx* work = nullptr) const {
    execute_batch(x, nlanes, /*inverse=*/false, work);
  }

  void inverse_batch(cpx* x, index_t nlanes, cpx* work = nullptr) const {
    execute_batch(x, nlanes, /*inverse=*/true, work);
  }

  /// Does this plan execute batches through lane-interleaved SIMD kernels
  /// under the currently active ISA (avx2 and a power-of-two length)? When
  /// false, execute_batch would only de-interleave and run per lane, so the
  /// c2c line loop (fft::c2c_lines) runs such plans one line at a time
  /// through forward()/inverse() instead.
  [[nodiscard]] bool batch_wants_lanes() const {
#if defined(TURBFNO_HAS_AVX2_KERNELS)
    if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
      return sub_ == nullptr && util::active_isa() == util::Isa::kAvx2;
    }
#endif
    return false;
  }

 private:
  void init_radix2() {
    // Bit-reversal permutation table.
    bitrev_.resize(static_cast<std::size_t>(n_));
    int log2n = 0;
    while ((index_t{1} << log2n) < n_) ++log2n;
    for (index_t i = 0; i < n_; ++i) {
      index_t r = 0;
      for (int b = 0; b < log2n; ++b) {
        r |= ((i >> b) & 1) << (log2n - 1 - b);
      }
      bitrev_[static_cast<std::size_t>(i)] = r;
    }
    // Twiddle table tw[k] = exp(-2πik/n), k < n/2.
    twiddle_.resize(static_cast<std::size_t>(n_ / 2));
    for (index_t k = 0; k < n_ / 2; ++k) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n_);
      twiddle_[static_cast<std::size_t>(k)] =
          cpx(static_cast<T>(std::cos(ang)), static_cast<T>(std::sin(ang)));
    }
    // Per-stage contiguous copies for the vectorized butterflies: the stage
    // with half = len/2 butterflies owns stage_tw_[half-1 .. 2·half-2],
    // stage_tw_[half-1 + j] = twiddle_[j·step] (same bits, n-1 entries
    // total). Built unconditionally so the ISA stays switchable at runtime.
    if (n_ > 1) {
      stage_tw_.resize(static_cast<std::size_t>(n_ - 1));
      for (index_t len = 2; len <= n_; len <<= 1) {
        const index_t half = len / 2;
        const index_t step = n_ / len;
        for (index_t j = 0; j < half; ++j) {
          stage_tw_[static_cast<std::size_t>(half - 1 + j)] =
              twiddle_[static_cast<std::size_t>(j * step)];
        }
      }
    }
  }

  void init_real_twiddles() {
    // e^(±2πik/2n), evaluated as (±2.0·π·k)/2n like every other table here.
    const auto unit = [n = static_cast<double>(2 * n_)](double two, index_t k) {
      const double ang = two * std::numbers::pi * static_cast<double>(k) / n;
      return cpx(static_cast<T>(std::cos(ang)), static_cast<T>(std::sin(ang)));
    };
    for (index_t k = 0; k <= n_; ++k) rfft_tw_.push_back(unit(-2.0, k));
    for (index_t k = 0; k < n_; ++k) irfft_tw_.push_back(unit(2.0, k));
  }

  void init_bluestein() {
    m_ = next_pow2(2 * n_ - 1);
    sub_ = std::make_unique<PlanC2C>(m_);
    chirp_.resize(static_cast<std::size_t>(n_));
    // chirp_k = exp(-iπ k²/n); reduce k² mod 2n in exact integer arithmetic
    // so the angle stays small and accurate for large n.
    for (index_t k = 0; k < n_; ++k) {
      const index_t k2 = (k * k) % (2 * n_);
      const double ang = -std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n_);
      chirp_[static_cast<std::size_t>(k)] =
          cpx(static_cast<T>(std::cos(ang)), static_cast<T>(std::sin(ang)));
    }
    // bf_ = FFT_m(b) with b_k = conj(chirp_k) arranged circularly.
    bf_.assign(static_cast<std::size_t>(m_), cpx{});
    bf_[0] = std::conj(chirp_[0]);
    for (index_t k = 1; k < n_; ++k) {
      const cpx v = std::conj(chirp_[static_cast<std::size_t>(k)]);
      bf_[static_cast<std::size_t>(k)] = v;
      bf_[static_cast<std::size_t>(m_ - k)] = v;
    }
    sub_->forward(bf_.data());
  }

  // noinline+noclone pin a single compiled body for the single-line
  // transform: it is the bitwise reference for the batched fallback in
  // execute_batch, and under -O3 GCC otherwise re-contracts inlined copies
  // and constant-propagation clones (e.g. an inverse=true .constprop clone)
  // of this function differently per call site — observed for f64 — which
  // would make "the same" transform round differently depending on who
  // called it.
  __attribute__((noinline, noclone)) void execute(cpx* x, bool inverse,
                                                  cpx* work) const {
    if (sub_ == nullptr) {
      radix2(x, inverse);
      if (inverse) {
        const T scale = T{1} / static_cast<T>(n_);
        for (index_t i = 0; i < n_; ++i) x[i] *= scale;
      }
    } else {
      if (inverse) {
        for (index_t i = 0; i < n_; ++i) x[i] = std::conj(x[i]);
        bluestein_forward(x, work);
        const T scale = T{1} / static_cast<T>(n_);
        for (index_t i = 0; i < n_; ++i) x[i] = std::conj(x[i]) * scale;
      } else {
        bluestein_forward(x, work);
      }
    }
  }

  void radix2(cpx* x, bool inverse) const {
    // Permute.
    for (index_t i = 0; i < n_; ++i) {
      const index_t r = bitrev_[static_cast<std::size_t>(i)];
      if (i < r) std::swap(x[i], x[r]);
    }
#if defined(TURBFNO_HAS_AVX2_KERNELS)
    if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
      if (util::active_isa() == util::Isa::kAvx2) {
        for (index_t len = 2; len <= n_; len <<= 1) {
          const index_t half = len / 2;
          avx2::radix2_stage(x, n_, len, stage_tw_.data() + (half - 1),
                             inverse);
        }
        return;
      }
    }
#endif
    // Butterflies.
    for (index_t len = 2; len <= n_; len <<= 1) {
      const index_t half = len / 2;
      const index_t step = n_ / len;
      for (index_t base = 0; base < n_; base += len) {
        for (index_t j = 0; j < half; ++j) {
          cpx w = twiddle_[static_cast<std::size_t>(j * step)];
          if (inverse) w = std::conj(w);
          const cpx u = x[base + j];
          const cpx v = x[base + j + half] * w;
          x[base + j] = u + v;
          x[base + j + half] = u - v;
        }
      }
    }
  }

  // Batched execution discipline: every floating-point rounding in the
  // batched path is produced either by an intrinsics lane kernel (fixed
  // arithmetic by construction) or by the exact single-line code running on
  // a de-interleaved copy. Compiler-generated per-lane FP loops are banned —
  // under -O3 -ffp-contract=fast GCC contracts/unswitches/vectorizes the
  // "same" expressions differently per code shape (lane count, keep-mask
  // null-ness, forward/inverse constant propagation), which silently breaks
  // batch occupancy invariance. Exact operations (copies, swaps, conj,
  // componentwise scaling) are exempt: they round nothing.
  void execute_batch(cpx* x, index_t nlanes, bool inverse, cpx* work) const {
    TURB_CHECK_MSG(nlanes >= 1 && nlanes <= kMaxLanes,
                   "batched FFT lane count " << nlanes << " out of range");
    if (nlanes == 1) {
      // A one-lane batch is exactly the single-line layout.
      execute(x, inverse, work);
      return;
    }
#if defined(TURBFNO_HAS_AVX2_KERNELS)
    if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
      if (sub_ == nullptr && util::active_isa() == util::Isa::kAvx2) {
        // Permute whole lane groups (exact swaps).
        for (index_t i = 0; i < n_; ++i) {
          const index_t r = bitrev_[static_cast<std::size_t>(i)];
          if (i < r) {
            cpx* a = x + i * nlanes;
            cpx* b = x + r * nlanes;
            for (index_t l = 0; l < nlanes; ++l) std::swap(a[l], b[l]);
          }
        }
        for (index_t len = 2; len <= n_; len <<= 1) {
          const index_t half = len / 2;
          avx2::radix2_stage_lanes(x, n_, len, stage_tw_.data() + (half - 1),
                                   nlanes, inverse);
        }
        if (inverse) {
          // Componentwise scaling is exact arithmetic-shape-wise: one
          // rounding per component, independent of vectorization.
          const T scale = T{1} / static_cast<T>(n_);
          const index_t total = n_ * nlanes;
          for (index_t i = 0; i < total; ++i) x[i] *= scale;
        }
        return;
      }
    }
#endif
    // Reference fallback (scalar tier, Bluestein lengths, non-SIMD types):
    // de-interleave and run the pinned single-line path per lane. The
    // copies are exact, so equality with the single-line transform is
    // structural, and the caller still gets the batched gather's
    // cache-line sharing on strided slabs.
    thread_local std::vector<cpx> lines;
    lines.resize(static_cast<std::size_t>(n_ * nlanes));
    for (index_t j = 0; j < n_; ++j) {
      const cpx* src = x + j * nlanes;
      for (index_t l = 0; l < nlanes; ++l) lines[l * n_ + j] = src[l];
    }
    for (index_t l = 0; l < nlanes; ++l) {
      execute(lines.data() + l * n_, inverse, work);
    }
    for (index_t j = 0; j < n_; ++j) {
      cpx* dst = x + j * nlanes;
      for (index_t l = 0; l < nlanes; ++l) dst[l] = lines[l * n_ + j];
    }
  }

  void bluestein_forward(cpx* x, cpx* scratch) const {
    thread_local std::vector<cpx> own;
    if (scratch == nullptr) {
      own.resize(static_cast<std::size_t>(m_));
      scratch = own.data();
    }
    std::fill(scratch, scratch + m_, cpx{});
    for (index_t k = 0; k < n_; ++k) {
      scratch[k] = x[k] * chirp_[static_cast<std::size_t>(k)];
    }
    sub_->forward(scratch);
    for (index_t k = 0; k < m_; ++k) {
      scratch[k] *= bf_[static_cast<std::size_t>(k)];
    }
    sub_->inverse(scratch);
    for (index_t k = 0; k < n_; ++k) {
      x[k] = scratch[k] * chirp_[static_cast<std::size_t>(k)];
    }
  }

  index_t n_;
  // Radix-2 state.
  std::vector<index_t> bitrev_;
  std::vector<cpx> twiddle_;
  std::vector<cpx> stage_tw_;  ///< per-stage contiguous copies (see init)
  // Bluestein state (null sub_ means radix-2 path).
  index_t m_ = 0;
  std::unique_ptr<PlanC2C> sub_;
  std::vector<cpx> chirp_;
  std::vector<cpx> bf_;
  // Real-transform unpack tables (see rfft_twiddles()).
  std::vector<cpx> rfft_tw_;
  std::vector<cpx> irfft_tw_;
};

extern template class PlanC2C<float>;
extern template class PlanC2C<double>;

}  // namespace turb::fft
