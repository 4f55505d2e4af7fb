// Real ↔ complex 1-D transforms via the half-length complex FFT trick.
//
// rfft maps n reals to n/2+1 complex coefficients (non-negative
// frequencies); irfft inverts with the 1/n normalisation so that
// irfft(rfft(x)) == x. Lengths must be even (all grids and the temporal
// window length used in this library are even).
//
// The unpack twiddles e^(∓2πik/n) are built once per length with the cached
// half-length plan (PlanC2C::rfft_twiddles/irfft_twiddles), so every caller
// of a length reads one table. Everything below is compiled once, for
// float and double only: the pinned single-row kernels in fft/real.cpp,
// and the one real-row loop rfft_rows/irfft_rows (with its lane-batched
// blocks) in fft/fft.cpp. The single-row transforms, fft::rfftn_into/
// irfftn_into (training, the NS step, the diagnostics) and the inference
// engine all run the same compiled code, so their outputs and fft/*
// counters agree by construction.
//
// The unpack/pack loops dispatch per call on util::active_isa() between the
// scalar reference loops and the AVX2/FMA kernels in fft/kernels_avx2.hpp;
// dispatch sits inside the shared instantiation, so the bitwise identity
// above holds under either ISA.
#pragma once

#include <complex>
#include <cstdint>

#include "fft/plan_cache.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace turb::fft {

/// Caller-owned scratch of the line loops, `stride` elements per pool slot
/// (ThreadPool::scratch_slot): the engine's plan-time arena slice, or a
/// workspace for the Tensor wrappers in fft/fftnd.hpp.
template <typename T>
struct LineScratch {
  std::complex<T>* base = nullptr;
  index_t stride = 0;

  [[nodiscard]] std::complex<T>* slot(const ThreadPool& pool) const {
    return base + static_cast<index_t>(pool.scratch_slot()) * stride;
  }
};

/// Scratch elements one slot needs for real rows of length n: lane blocks
/// of n/2 and n/2+1 elements, then the half-length plan's work_size().
template <typename T>
index_t row_scratch_elems(index_t n) {
  return (n + 1) * kMaxLanes + plan<T>(n / 2).work_size();
}

namespace detail {

/// The pinned single-row kernels (fft/real.cpp): `z` holds n/2 elements,
/// `work` the half-length plan's work_size() or null.
template <typename T>
void rfft_scratch(const T* in, std::complex<T>* out, index_t n,
                  const std::uint8_t* keep_bins, std::complex<T>* z,
                  std::complex<T>* work);
template <typename T>
void irfft_scratch(const std::complex<T>* in, T* out, index_t n,
                   std::complex<T>* z, std::complex<T>* work);

}  // namespace detail

/// Forward real-to-complex DFT. `out` must hold n/2+1 elements.
///
/// `keep_bins` (optional, length n/2+1) marks which output bins the caller
/// will read; unmarked bins are skipped — their slots are left untouched.
/// Each bin's unpack is an independent function of the shared half-length
/// complex FFT, so skipping a bin cannot perturb any other bin and the kept
/// bins stay bitwise identical to the unmasked transform.
template <typename T>
void rfft(const T* in, std::complex<T>* out, index_t n,
          const std::uint8_t* keep_bins = nullptr);

/// Inverse complex-to-real DFT (1/n scaling). `in` holds n/2+1 elements and
/// is treated as the non-negative-frequency half of a Hermitian spectrum.
template <typename T>
void irfft(const std::complex<T>* in, T* out, index_t n);

/// The real-row loop: transforms `rows` contiguous rows (real rows of n
/// values at in + r·n, spectrum rows of n/2+1 at out + r·(n/2+1)) on
/// `pool`, in blocks of up to lane_count<T>(active ISA) rows per pool chunk
/// — lane kernels on avx2, the single-row kernel per row on the scalar tier.
/// Each row's bits equal the single-row rfft, whatever its block occupancy.
/// `keep_bins` as for rfft. Counts fft/r2c_lines, fft/lines_total,
/// fft/batched_lines and fft/batch_tail_lines. `scratch.stride` must be at
/// least row_scratch_elems<T>(n).
template <typename T>
void rfft_rows(ThreadPool& pool, const T* in, std::complex<T>* out,
               index_t rows, index_t n, const std::uint8_t* keep_bins,
               LineScratch<T> scratch);

/// Inverse of rfft_rows (the same loop, the single-row irfft per row);
/// counts fft/c2r_lines in place of fft/r2c_lines.
template <typename T>
void irfft_rows(ThreadPool& pool, const std::complex<T>* in, T* out,
                index_t rows, index_t n, LineScratch<T> scratch);

}  // namespace turb::fft
