// The FFT module's compiled core: the real-row loop, the strided c2c line
// loop, and the explicit float/double instantiations of the plan and the
// Tensor wrappers (the pinned single-row kernels they call are in
// fft/real.cpp). Every other translation unit sees only `extern template`
// declarations of these, so training, the NS step, the diagnostics and the
// inference engine all run this one compiled copy (see fft/fftnd.hpp).
#include "fft/fftnd.hpp"

#include <algorithm>
#include <vector>

#include "fft/kernels_avx2.hpp"
#include "obs/obs.hpp"
#include "util/isa.hpp"

namespace turb::fft {

namespace {

/// The one real-row loop behind rfft_rows and irfft_rows: rows run on
/// `pool` in blocks of up to B = lane_count<T>(active ISA) within each
/// chunk, block(r, nl, z, u, work) transforming rows r..r+nl-1 in the
/// calling slot's scratch (z: n/2·kMaxLanes, u: (n/2+1)·kMaxLanes, then the
/// plan's work). Blocks never straddle a chunk, so the partition — and the
/// thread-count determinism contract — is the pool's alone. Counter deltas
/// publish once per chunk: a relaxed add per block bounces a cache line.
template <typename T, typename Block>
void row_loop(ThreadPool& pool, index_t rows, index_t n, obs::Counter& lines,
              LineScratch<T> scratch, const Block& block) {
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "real FFT length must be even, got "
                                           << n);
  TURB_CHECK(scratch.stride >= row_scratch_elems<T>(n));
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  static obs::Counter& batched_lines = obs::counter("fft/batched_lines");
  static obs::Counter& tail_lines = obs::counter("fft/batch_tail_lines");
  lines.add(rows);
  lines_total.add(rows);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  const index_t batch = lane_count<T>(util::active_isa());
  parallel_for_chunked(pool, 0, rows, [&](index_t rb, index_t re) {
    std::complex<T>* z = scratch.slot(pool);
    std::complex<T>* u = z + n / 2 * kMaxLanes;
    std::complex<T>* work = z + (n + 1) * kMaxLanes;
    std::int64_t my_batched = 0, my_tails = 0;
    for (index_t r = rb; r < re; r += batch) {
      const index_t nl = std::min(batch, re - r);
      block(r, nl, z, u, work);
      my_batched += nl;
      if (nl < batch) my_tails += nl;
    }
    batched_lines.add(my_batched);
    if (my_tails != 0) tail_lines.add(my_tails);
  });
}

}  // namespace

template <typename T>
void rfft(const T* in, std::complex<T>* out, index_t n,
          const std::uint8_t* keep_bins) {
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "rfft length must be even, got " << n);
  thread_local std::vector<std::complex<T>> z;
  z.resize(static_cast<std::size_t>(n / 2));
  detail::rfft_scratch<T>(in, out, n, keep_bins, z.data(), nullptr);
}

template <typename T>
void irfft(const std::complex<T>* in, T* out, index_t n) {
  TURB_CHECK_MSG(n >= 2 && n % 2 == 0, "irfft length must be even, got " << n);
  thread_local std::vector<std::complex<T>> z;
  z.resize(static_cast<std::size_t>(n / 2));
  detail::irfft_scratch<T>(in, out, n, z.data(), nullptr);
}

// A block's rows are bitwise identical to the single-row kernel on each row
// alone under the same ISA tier. Where the half-length plan has a lane
// kernel (batch_wants_lanes: avx2, power-of-two length) the gather/scatter
// are exact copies and the transform and (un)pack run intrinsics lane
// kernels with fixed per-lane arithmetic; elsewhere the rows (already
// contiguous) run the pinned single-row kernel one at a time — no
// compiler-generated per-lane FP loops anywhere (see fft/plan.hpp on batch
// occupancy invariance). Bins masked out by keep_bins are left untouched.
template <typename T>
void rfft_rows(ThreadPool& pool, const T* in, std::complex<T>* out,
               index_t rows, index_t n, const std::uint8_t* keep_bins,
               LineScratch<T> scratch) {
  using cpx = std::complex<T>;
  static obs::Counter& r2c_lines = obs::counter("fft/r2c_lines");
  const index_t h = n / 2;
  row_loop(pool, rows, n, r2c_lines, scratch,
           [&](index_t r, index_t nl, cpx* z, cpx* u, cpx* work) {
             const T* rin = in + r * n;
             cpx* rout = out + r * (h + 1);
             const PlanC2C<T>& p = plan<T>(h);
#if defined(TURBFNO_HAS_AVX2_KERNELS)
             if (nl > 1 && p.batch_wants_lanes()) {
               for (index_t l = 0; l < nl; ++l) {
                 for (index_t k = 0; k < h; ++k) {
                   z[k * nl + l] =
                       cpx(rin[l * n + 2 * k], rin[l * n + 2 * k + 1]);
                 }
               }
               p.forward_batch(z, nl);
               avx2::rfft_unpack_lanes(z, u, h, keep_bins, p.rfft_twiddles(),
                                       nl);
               for (index_t l = 0; l < nl; ++l) {
                 for (index_t k = 0; k <= h; ++k) {
                   if (keep_bins != nullptr && keep_bins[k] == 0) continue;
                   rout[l * (h + 1) + k] = u[k * nl + l];
                 }
               }
               return;
             }
#endif
             (void)u;
             for (index_t l = 0; l < nl; ++l) {
               detail::rfft_scratch(rin + l * n, rout + l * (h + 1), n,
                                    keep_bins, z, work);
             }
           });
}

template <typename T>
void irfft_rows(ThreadPool& pool, const std::complex<T>* in, T* out,
                index_t rows, index_t n, LineScratch<T> scratch) {
  using cpx = std::complex<T>;
  static obs::Counter& c2r_lines = obs::counter("fft/c2r_lines");
  const index_t h = n / 2;
  row_loop(pool, rows, n, c2r_lines, scratch,
           [&](index_t r, index_t nl, cpx* z, cpx* u, cpx* work) {
             const cpx* rin = in + r * (h + 1);
             T* rout = out + r * n;
             const PlanC2C<T>& p = plan<T>(h);
#if defined(TURBFNO_HAS_AVX2_KERNELS)
             if (nl > 1 && p.batch_wants_lanes()) {
               for (index_t l = 0; l < nl; ++l) {
                 for (index_t k = 0; k <= h; ++k) {
                   u[k * nl + l] = rin[l * (h + 1) + k];
                 }
               }
               avx2::irfft_pack_lanes(u, z, h, p.irfft_twiddles(), nl);
               p.inverse_batch(z, nl);
               for (index_t l = 0; l < nl; ++l) {
                 for (index_t k = 0; k < h; ++k) {
                   rout[l * n + 2 * k] = z[k * nl + l].real();
                   rout[l * n + 2 * k + 1] = z[k * nl + l].imag();
                 }
               }
               return;
             }
#endif
             (void)u;
             for (index_t l = 0; l < nl; ++l) {
               detail::irfft_scratch(rin + l * (h + 1), rout + l * n, n, z,
                                     work);
             }
           });
}

template <typename T>
void c2c_lines(ThreadPool& pool, const std::complex<T>* src,
               std::complex<T>* dst, index_t outer, index_t n, index_t inner,
               bool forward, const std::uint8_t* inner_keep,
               LineScratch<T> scratch) {
  using cpx = std::complex<T>;
  if (n == 1) {  // the identity: nothing transformed or counted
    for (index_t t = 0; src != dst && t < outer * inner; ++t) {
      if (inner_keep == nullptr || inner_keep[t % inner] != 0) dst[t] = src[t];
    }
    return;
  }
  TURB_CHECK(scratch.stride >= line_scratch_elems<T>(n));
  // Pruning coverage counters (exported via --metrics-out): every candidate
  // line counts toward lines_total, masked-out lines toward
  // pruned_lines_skipped.
  static obs::Counter& lines_total = obs::counter("fft/lines_total");
  static obs::Counter& lines_skipped = obs::counter("fft/pruned_lines_skipped");
  static obs::Counter& batched_lines = obs::counter("fft/batched_lines");
  static obs::Counter& tail_lines = obs::counter("fft/batch_tail_lines");
  lines_total.add(outer * inner);
  util::fft_dispatch_counter(util::active_isa()).add(1);
  if (inner_keep != nullptr) {
    index_t kept = 0;
    for (index_t i = 0; i < inner; ++i) kept += (inner_keep[i] != 0);
    lines_skipped.add(outer * (inner - kept));
  }
  const PlanC2C<T>& p = plan<T>(n);

  // Lines are independent (disjoint read/write slices), so dispatch is
  // chunked over the pool: each task transforms a contiguous run of lines,
  // amortising the dispatch cost over many transforms. The skip test inside
  // the body does not move chunk boundaries, so the partition — and with it
  // the thread-count determinism contract — is unchanged.
  if (inner == 1) {
    if (inner_keep != nullptr && inner_keep[0] == 0) return;
    parallel_for_chunked(pool, 0, outer, [&](index_t ob, index_t oe) {
      cpx* work = scratch.slot(pool);
      for (index_t o = ob; o < oe; ++o) {
        cpx* line = dst + o * n;
        if (src != dst) std::copy(src + o * n, src + (o + 1) * n, line);
        forward ? p.forward(line, work) : p.inverse(line, work);
      }
    });
    return;
  }

  // Strided lines: gather each kept line into the slot's lane-interleaved
  // block, transform, scatter into dst. Collection happens within each
  // chunk, so the chunk partition is unchanged; a one-lane batch is exactly
  // the single-line layout.
  const index_t batch =
      p.batch_wants_lanes() ? lane_count<T>(util::active_isa()) : 1;
  parallel_for_chunked(pool, 0, outer * inner, [&](index_t tb, index_t te) {
    cpx* work = scratch.slot(pool);
    cpx* plan_work = work + n * kMaxLanes;
    const cpx* in_lanes[kMaxLanes];
    cpx* out_lanes[kMaxLanes];
    index_t count = 0;
    std::int64_t my_batched = 0, my_tails = 0;
    const auto flush = [&] {
      if (count == 0) return;
      for (index_t l = 0; l < count; ++l) {
        const cpx* base = in_lanes[l];
        for (index_t j = 0; j < n; ++j) work[j * count + l] = base[j * inner];
      }
      forward ? p.forward_batch(work, count, plan_work)
              : p.inverse_batch(work, count, plan_work);
      for (index_t l = 0; l < count; ++l) {
        cpx* base = out_lanes[l];
        for (index_t j = 0; j < n; ++j) base[j * inner] = work[j * count + l];
      }
      my_batched += count;
      if (count < batch) my_tails += count;
      count = 0;
    };
    for (index_t t = tb; t < te; ++t) {
      const index_t o = t / inner;
      const index_t i = t % inner;
      if (inner_keep != nullptr && inner_keep[i] == 0) continue;
      in_lanes[count] = src + o * n * inner + i;
      out_lanes[count] = dst + o * n * inner + i;
      if (++count == batch) flush();
    }
    flush();
    if (batch > 1 && my_batched != 0) batched_lines.add(my_batched);
    if (my_tails != 0) tail_lines.add(my_tails);
  });
}

template class PlanC2C<float>;
template class PlanC2C<double>;

#define TURB_FFT_INSTANTIATE(T)                                               \
  template void rfft<T>(const T*, std::complex<T>*, index_t,                  \
                        const std::uint8_t*);                                 \
  template void irfft<T>(const std::complex<T>*, T*, index_t);                \
  template void rfft_rows<T>(ThreadPool&, const T*, std::complex<T>*,        \
                             index_t, index_t, const std::uint8_t*,           \
                             LineScratch<T>);                                 \
  template void irfft_rows<T>(ThreadPool&, const std::complex<T>*, T*,       \
                              index_t, index_t, LineScratch<T>);              \
  template void c2c_lines<T>(ThreadPool&, const std::complex<T>*,            \
                             std::complex<T>*, index_t, index_t, index_t,     \
                             bool, const std::uint8_t*, LineScratch<T>);      \
  template void c2c_axis<T>(Tensor<std::complex<T>>&, std::size_t, bool,     \
                            const std::vector<std::uint8_t>*);                \
  template void rfftn_into<T>(const Tensor<T>&, int,                          \
                              Tensor<std::complex<T>>&, const ModeMask*);     \
  template void irfftn_into<T>(const Tensor<std::complex<T>>&, int, index_t, \
                               Tensor<T>&, const ModeMask*);
TURB_FFT_INSTANTIATE(float)
TURB_FFT_INSTANTIATE(double)
#undef TURB_FFT_INSTANTIATE

}  // namespace turb::fft
