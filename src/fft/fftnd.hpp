// Batched N-dimensional transforms over the trailing axes of a Tensor.
//
// rfftn/irfftn transform the trailing `ndim` axes (real last axis, complex
// for the rest), which is exactly the layout the FNO spectral convolutions
// need: (batch, channels, spatial...) with the transform applied per
// batch/channel slab. They are thin wrappers (shape checks, masks, the
// fft/r2c, fft/c2r and fft/c2c spans) over the two line loops every
// transform in the library runs, on the current thread pool: the real-row
// loop rfft_rows/irfft_rows (fft/real.hpp) and the strided c2c line loop
// c2c_lines below. The loops are defined and instantiated for float and
// double only in fft/fft.cpp, the wrappers are declared `extern template`
// below, so each is compiled exactly once; the inference engine calls the
// same loops with its plan-time arena scratch.
//
// Mode-pruned transforms: callers that only consume (forward) or only
// populate (inverse) a subset of spectrum coordinates — the FNO spectral
// convolution keeps m ≪ N modes per axis — can pass a ModeMask. The c2c
// stages then skip every 1-D line whose already-transformed coordinates lie
// outside the kept set:
//
//   * forward: a skipped line's outputs are never read by the caller, and
//     the lines that are computed run the identical per-line kernel on
//     identical inputs, so kept coordinates are bitwise identical to the
//     full transform;
//   * inverse: a skipped line's inputs are exactly zero (caller contract:
//     the spectrum is zero wherever any masked coordinate is pruned), and
//     zeros propagate exactly through the butterflies, so the final real
//     output is bitwise identical to the full transform.
//
// The 1-D real stage (rfft/irfft rows) is never pruned: its lines are
// indexed by coordinates that are dense on that side of the transform.
//
// The `_into` variants write through a caller-held output tensor
// (reallocated only on shape change), and the inverse copy and the loops'
// per-slot scratch come from workspace.hpp buffers, keeping the allocator
// off the training hot path.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <vector>

#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "fft/workspace.hpp"
#include "obs/obs.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace turb::fft {

/// Per-trailing-axis kept-coordinate flags for mode-pruned transforms.
/// mask[j] (j = 0 for the outermost transformed axis, …, ndim-1 for the
/// rfft axis) holds one byte per spectrum coordinate of that axis — the
/// full extent for c2c axes, n/2+1 for the last — nonzero meaning "kept".
/// An empty per-axis vector keeps every coordinate of that axis.
using ModeMask = std::vector<std::vector<std::uint8_t>>;

namespace detail {

/// Flatten the per-axis masks of trailing axes [first, ndim) into keep
/// flags over their row-major product — the `inner` block of a c2c line
/// dispatch along a more-outer axis — written into `keep`. Returns nullptr
/// when those axes prune nothing, else `&keep`. `keep` is caller-held so a
/// reused buffer makes the call allocation-free once it has grown.
inline const std::vector<std::uint8_t>* inner_keep_flags(
    const ModeMask& mask, std::size_t first, const Shape& spec_shape,
    std::size_t ndim, std::vector<std::uint8_t>& keep) {
  const std::size_t rank = spec_shape.size();
  bool any = false;
  for (std::size_t j = first; j < ndim; ++j) {
    if (!mask[j].empty()) any = true;
  }
  if (!any) return nullptr;
  index_t inner = 1;
  for (std::size_t j = first; j < ndim; ++j) {
    inner *= spec_shape[rank - ndim + j];
  }
  keep.assign(static_cast<std::size_t>(inner), 1);
  for (index_t i = 0; i < inner; ++i) {
    index_t rem = i;
    for (std::size_t j = ndim; j-- > first;) {
      const index_t extent = spec_shape[rank - ndim + j];
      const index_t coord = rem % extent;
      rem /= extent;
      if (!mask[j].empty() && mask[j][static_cast<std::size_t>(coord)] == 0) {
        keep[static_cast<std::size_t>(i)] = 0;
        break;
      }
    }
  }
  return &keep;
}

/// Size `out` to `like` with its last extent replaced by `last`. The shapes
/// are compared in place, so an output already of that shape costs no
/// allocation.
template <typename T>
void size_output(Tensor<T>& out, const Shape& like, index_t last) {
  const Shape& have = out.shape();
  if (have.size() == like.size() &&
      std::equal(like.begin(), like.end() - 1, have.begin()) &&
      have.back() == last) {
    return;
  }
  Shape shape = like;
  shape.back() = last;
  out = Tensor<T>(std::move(shape));
}

/// Per-slot line-loop scratch for `pool` from the calling thread's
/// workspace `slot` (the engine passes a plan-time arena slice instead).
/// The threads of one dispatch on `pool` hold disjoint slots, and a nested
/// (serial) dispatch runs on the calling thread alone.
template <typename T>
LineScratch<T> pool_scratch(const ThreadPool& pool, std::string_view slot,
                            index_t per_slot) {
  const auto slots = static_cast<index_t>(pool.slot_count());
  return {workspace<std::complex<T>>(slot, {slots * per_slot}).data(),
          per_slot};
}

inline void validate_mask(const ModeMask* mask, const Shape& spec_shape,
                          int ndim) {
  if (mask == nullptr) return;
  TURB_CHECK_MSG(mask->size() == static_cast<std::size_t>(ndim),
                 "ModeMask has " << mask->size() << " axes, transform has "
                                 << ndim);
  const std::size_t rank = spec_shape.size();
  for (std::size_t j = 0; j < mask->size(); ++j) {
    const auto& axis_mask = (*mask)[j];
    const auto extent = static_cast<std::size_t>(
        spec_shape[rank - static_cast<std::size_t>(ndim) + j]);
    TURB_CHECK_MSG(axis_mask.empty() || axis_mask.size() == extent,
                   "ModeMask axis " << j << " has " << axis_mask.size()
                                    << " flags for extent " << extent);
  }
}

}  // namespace detail

/// The c2c line loop: for every (o, i) in [0, outer) × [0, inner), the
/// length-n line at src + o·n·inner + i (stride inner) is transformed into
/// the same position of dst; src and dst may alias. Lines whose inner
/// coordinate `inner_keep` prunes are neither transformed nor written.
/// Kept lines run in lane-interleaved batches of up to
/// lane_count<T>(active ISA) per pool chunk where the plan has a lane
/// kernel, else one at a time; a line's bits do not depend on its batch
/// (see fft/plan.hpp). Counts fft/lines_total, fft/pruned_lines_skipped,
/// fft/batched_lines and fft/batch_tail_lines (nothing when n == 1).
/// `scratch.stride` must be at least line_scratch_elems<T>(n).
template <typename T>
void c2c_lines(ThreadPool& pool, const std::complex<T>* src,
               std::complex<T>* dst, index_t outer, index_t n, index_t inner,
               bool forward, const std::uint8_t* inner_keep,
               LineScratch<T> scratch);

/// Scratch elements one slot needs for c2c lines of length n: the
/// lane-interleaved block and the plan's work_size().
template <typename T>
index_t line_scratch_elems(index_t n) {
  return n * kMaxLanes + plan<T>(n).work_size();
}

/// In-place complex FFT along `axis` over every line of the tensor. With
/// `inner_keep` (one flag per flattened coordinate of the axes after
/// `axis`), lines whose inner coordinate is pruned are left untouched.
template <typename T>
void c2c_axis(Tensor<std::complex<T>>& x, std::size_t axis, bool forward,
              const std::vector<std::uint8_t>* inner_keep = nullptr) {
  TURB_TRACE_SCOPE("fft/c2c");
  TURB_CHECK(axis < x.rank());
  const Shape& shape = x.shape();
  const index_t n = shape[axis];
  index_t outer = 1, inner = 1;
  for (std::size_t i = 0; i < axis; ++i) outer *= shape[i];
  for (std::size_t i = axis + 1; i < shape.size(); ++i) inner *= shape[i];
  const std::uint8_t* keep = nullptr;
  if (inner_keep != nullptr && !inner_keep->empty()) {
    TURB_CHECK_MSG(static_cast<index_t>(inner_keep->size()) == inner,
                   "inner_keep has " << inner_keep->size()
                                     << " flags for inner extent " << inner);
    keep = inner_keep->data();
  }
  ThreadPool& pool = ThreadPool::current();
  c2c_lines(pool, x.data(), x.data(), outer, n, inner, forward, keep,
            detail::pool_scratch<T>(pool, "fft/line_scratch",
                                    line_scratch_elems<T>(n)));
}

/// Real-to-complex transform of the trailing `ndim` axes into `out`
/// (reallocated only when the spectrum shape changes). With a mask, spectrum
/// positions having any pruned coordinate are unspecified (they hold
/// partially transformed values); kept positions are bitwise identical to
/// the unmasked transform.
template <typename T>
void rfftn_into(const Tensor<T>& x, int ndim, Tensor<std::complex<T>>& out,
                const ModeMask* mask = nullptr) {
  TURB_TRACE_SCOPE("fft/r2c");
  TURB_CHECK(ndim >= 1 && static_cast<std::size_t>(ndim) <= x.rank());
  const Shape& in_shape = x.shape();
  const std::size_t rank = in_shape.size();
  const index_t n_last = in_shape[rank - 1];
  detail::size_output(out, in_shape, n_last / 2 + 1);
  const Shape& out_shape = out.shape();
  detail::validate_mask(mask, out_shape, ndim);

  // Every row must be transformed (the other transform axes are still in
  // spatial coordinates here), but output bins of a pruned last-axis
  // coordinate are never read downstream, so the per-row unpack skips them.
  const std::uint8_t* keep_bins = nullptr;
  if (mask != nullptr && !mask->back().empty()) {
    keep_bins = mask->back().data();
  }
  ThreadPool& pool = ThreadPool::current();
  rfft_rows(pool, x.data(), out.data(), x.size() / n_last, n_last, keep_bins,
            detail::pool_scratch<T>(pool, "fft/row_scratch",
                                    row_scratch_elems<T>(n_last)));

  // Remaining (complex) transform axes, innermost-first order is arbitrary.
  // Stage d transforms trailing axis j = ndim-1-d; the axes after j are
  // already in spectral coordinates, so their masks prune whole lines.
  thread_local std::vector<std::uint8_t> keep;
  for (int d = 1; d < ndim; ++d) {
    const std::size_t axis = rank - 1 - static_cast<std::size_t>(d);
    const std::vector<std::uint8_t>* flags =
        mask == nullptr ? nullptr
                        : detail::inner_keep_flags(
                              *mask, static_cast<std::size_t>(ndim - d),
                              out_shape, static_cast<std::size_t>(ndim), keep);
    c2c_axis(out, axis, /*forward=*/true, flags);
  }
}

/// Real-to-complex transform of the trailing `ndim` axes.
/// Input shape (..., S1, ..., Sd) → output (..., S1, ..., Sd/2+1).
template <typename T>
Tensor<std::complex<T>> rfftn(const Tensor<T>& x, int ndim,
                              const ModeMask* mask = nullptr) {
  Tensor<std::complex<T>> out;
  rfftn_into(x, ndim, out, mask);
  return out;
}

/// Inverse of rfftn, into `out` (reallocated only on shape change).
/// `n_last` is the original size of the last axis (it is not recoverable
/// from the truncated spectrum alone). With a mask, the caller guarantees
/// the spectrum is exactly zero at every position having any pruned
/// coordinate; the result is then bitwise identical to the unmasked
/// transform.
template <typename T>
void irfftn_into(const Tensor<std::complex<T>>& x, int ndim, index_t n_last,
                 Tensor<T>& out, const ModeMask* mask = nullptr) {
  using cpx = std::complex<T>;
  TURB_TRACE_SCOPE("fft/c2r");
  TURB_CHECK(ndim >= 1 && static_cast<std::size_t>(ndim) <= x.rank());
  const std::size_t rank = x.rank();
  TURB_CHECK_MSG(x.shape()[rank - 1] == n_last / 2 + 1,
                 "spectrum last-axis size inconsistent with n_last");
  detail::validate_mask(mask, x.shape(), ndim);

  // The inverse c2c stages run in place on a workspace copy; with ndim == 1
  // there are no c2c stages, so the rows are read straight from `x` and the
  // copy is skipped entirely.
  const cpx* spec = x.data();
  if (ndim > 1) {
    Tensor<cpx>& work = workspace<cpx>("fft/irfftn_work", x.shape());
    std::copy(x.data(), x.data() + x.size(), work.data());
    // Outermost trailing axis first; the axes after stage j's axis are still
    // untransformed spectral coordinates, so their masks prune whole lines
    // (which are exactly zero by the caller contract).
    thread_local std::vector<std::uint8_t> keep;
    for (int d = ndim - 1; d >= 1; --d) {
      const std::size_t axis = rank - 1 - static_cast<std::size_t>(d);
      const std::vector<std::uint8_t>* flags =
          mask == nullptr ? nullptr
                          : detail::inner_keep_flags(
                                *mask, static_cast<std::size_t>(ndim - d),
                                x.shape(), static_cast<std::size_t>(ndim),
                                keep);
      c2c_axis(work, axis, /*forward=*/false, flags);
    }
    spec = work.data();
  }

  detail::size_output(out, x.shape(), n_last);
  ThreadPool& pool = ThreadPool::current();
  irfft_rows(pool, spec, out.data(), out.size() / n_last, n_last,
             detail::pool_scratch<T>(pool, "fft/row_scratch",
                                     row_scratch_elems<T>(n_last)));
}

/// Inverse of rfftn. `n_last` is the original size of the last axis.
template <typename T>
Tensor<T> irfftn(const Tensor<std::complex<T>>& x, int ndim, index_t n_last,
                 const ModeMask* mask = nullptr) {
  Tensor<T> out;
  irfftn_into(x, ndim, n_last, out, mask);
  return out;
}

// Compiled once, in fft/fft.cpp (rfftn/irfftn only forward to these).
#define TURB_FFT_WRAPPERS(T)                                                  \
  extern template void c2c_axis<T>(Tensor<std::complex<T>>&, std::size_t,    \
                                   bool, const std::vector<std::uint8_t>*);  \
  extern template void rfftn_into<T>(const Tensor<T>&, int,                  \
                                     Tensor<std::complex<T>>&,               \
                                     const ModeMask*);                       \
  extern template void irfftn_into<T>(const Tensor<std::complex<T>>&, int,   \
                                      index_t, Tensor<T>&, const ModeMask*);
TURB_FFT_WRAPPERS(float)
TURB_FFT_WRAPPERS(double)
#undef TURB_FFT_WRAPPERS

}  // namespace turb::fft
