// The pinned single-row real kernels, alone in their translation unit:
// every real row not run by the avx2 lane kernels (single-row rfft/irfft,
// the row loops, hence rfftn/irfftn and the engine) runs these bodies.
// GCC's contraction of the scalar unpack under -ffp-contract=fast follows
// the code around it; compiled next to the row loop in fft/fft.cpp it
// rounded f32 differently at n = 64 (see DESIGN.md, codegen caveat).
#include "fft/real.hpp"

#include "fft/kernels_avx2.hpp"
#include "util/isa.hpp"

namespace turb::fft {

namespace detail {

/// rfft of one row with caller-provided scratch `z` (n/2 elements) and
/// `work` (the half-length plan's work_size(), or null). noinline+noclone
/// pin one compiled body (as for PlanC2C::execute): inlined copies of the
/// scalar unpack would otherwise be FMA-contracted differently per call
/// site under -ffp-contract=fast, and the single-row rfft would stop being
/// the bitwise reference for the row blocks.
template <typename T>
__attribute__((noinline, noclone)) void rfft_scratch(
    const T* in, std::complex<T>* out, index_t n,
    const std::uint8_t* keep_bins, std::complex<T>* z,
    std::complex<T>* work) {
  using cpx = std::complex<T>;
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "rfft length must be even, got " << n);
  const index_t h = n / 2;
  for (index_t k = 0; k < h; ++k) {
    z[k] = cpx(in[2 * k], in[2 * k + 1]);
  }
  const PlanC2C<T>& p = plan<T>(h);
  p.forward(z, work);
  const cpx* tw = p.rfft_twiddles();

#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if (util::active_isa() == util::Isa::kAvx2) {
    avx2::rfft_unpack(z, out, h, keep_bins, tw);
    return;
  }
#endif
  for (index_t k = 0; k <= h; ++k) {
    if (keep_bins != nullptr && keep_bins[k] == 0) continue;
    const cpx zk = z[k % h];
    const cpx zc = std::conj(z[(h - k) % h]);
    const cpx e = (zk + zc) * T{0.5};
    // O_k = (zk - zc) / (2i) = -i/2 * (zk - zc)
    const cpx d = zk - zc;
    const cpx o(T{0.5} * d.imag(), T{-0.5} * d.real());
    const cpx w = tw[k];
    out[k] = e + w * o;
  }
}

/// irfft of one row with caller-provided scratch `z` and `work` (as for
/// rfft_scratch). Pinned like rfft_scratch.
template <typename T>
__attribute__((noinline, noclone)) void irfft_scratch(
    const std::complex<T>* in, T* out, index_t n, std::complex<T>* z,
    std::complex<T>* work) {
  using cpx = std::complex<T>;
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "irfft length must be even, got " << n);
  const index_t h = n / 2;
  const cpx* tw = plan<T>(h).irfft_twiddles();
#if defined(TURBFNO_HAS_AVX2_KERNELS)
  if (util::active_isa() == util::Isa::kAvx2) {
    avx2::irfft_pack(in, z, h, tw);
    plan<T>(h).inverse(z, work);
    for (index_t k = 0; k < h; ++k) {
      out[2 * k] = z[k].real();
      out[2 * k + 1] = z[k].imag();
    }
    return;
  }
#endif
  for (index_t k = 0; k < h; ++k) {
    // The DC and Nyquist coefficients of a real signal are real; like cuFFT's
    // C2R, ignore any imaginary part there so the transform is exactly the
    // Hermitian-symmetric inverse (this makes the spectral-conv backward pass
    // an exact adjoint even when upstream produces non-Hermitian spectra).
    const cpx xk = (k == 0) ? cpx(in[0].real(), T{}) : in[k];
    const cpx xc = (k == 0) ? cpx(in[h].real(), T{})
                            : std::conj(in[h - k]);
    const cpx e = (xk + xc) * T{0.5};
    const cpx d = (xk - xc) * T{0.5};
    const cpx w = tw[k];
    const cpx o = d * w;
    // Z_k = E_k + i O_k
    z[k] = cpx(e.real() - o.imag(), e.imag() + o.real());
  }
  plan<T>(h).inverse(z, work);
  for (index_t k = 0; k < h; ++k) {
    out[2 * k] = z[k].real();
    out[2 * k + 1] = z[k].imag();
  }
}

}  // namespace detail

#define TURB_FFT_ROW_KERNELS(T)                                               \
  template void detail::rfft_scratch<T>(const T*, std::complex<T>*, index_t, \
                                        const std::uint8_t*,                  \
                                        std::complex<T>*, std::complex<T>*);  \
  template void detail::irfft_scratch<T>(const std::complex<T>*, T*,         \
                                         index_t, std::complex<T>*,           \
                                         std::complex<T>*);
TURB_FFT_ROW_KERNELS(float)
TURB_FFT_ROW_KERNELS(double)
#undef TURB_FFT_ROW_KERNELS

}  // namespace turb::fft
