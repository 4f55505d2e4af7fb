// Reusable transform scratch buffers, keyed by call-site slot name.
//
// The FFT entry points (and their SpectralConv callers) run once per layer
// per training step; allocating the spectrum tensors fresh on every call put
// the allocator on the hot path. workspace() hands out a thread-local tensor
// per (element type, slot) pair that persists across calls: a repeat request
// with the same shape returns the same buffer (contents left from the
// previous use), and a request with a different shape reshapes it in place,
// reusing the storage whenever it is large enough. Storage only grows, so a
// slot that alternates between shapes (a transform called on windows of
// varying length, or by callers of different sizes) allocates once for the
// largest of them and never again.
//
// Buffers are thread_local, so workers that end up running a transform
// serially inside a parallel region get private scratch with no locking;
// the cost is at most one buffer set per thread that calls in.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "obs/obs.hpp"
#include "tensor/tensor.hpp"

namespace turb::fft {

/// Thread-local scratch tensor for `slot`, shaped `shape`. The reference is
/// valid until the same (type, slot) pair is requested on the same thread
/// with a shape larger than any it held before. Contents are unspecified on
/// a fresh allocation (zero-initialised) and carried over on reuse — callers
/// that need zeros must clear explicitly. Only an allocation counts as a
/// miss (fft/workspace_misses); a hit never touches the heap.
template <typename T>
Tensor<T>& workspace(std::string_view slot, std::span<const index_t> shape) {
  thread_local std::map<std::string, Tensor<T>, std::less<>> cache;
  static obs::Counter& hits = obs::counter("fft/workspace_hits");
  static obs::Counter& misses = obs::counter("fft/workspace_misses");
  auto it = cache.find(slot);
  if (it == cache.end()) {
    misses.add(1);
    it = cache.emplace(std::string(slot),
                       Tensor<T>(Shape(shape.begin(), shape.end())))
             .first;
    return it->second;
  }
  Tensor<T>& t = it->second;
  if (std::ranges::equal(t.shape(), shape)) {
    hits.add(1);
    return t;
  }
  index_t count = 1;
  for (const index_t d : shape) count *= d;
  (count > t.capacity() ? misses : hits).add(1);
  t.resize(shape);
  return t;
}

/// Braced-extent form (`workspace<T>("slot", {a, b})`): builds no Shape, so
/// a hit is allocation-free.
template <typename T>
Tensor<T>& workspace(std::string_view slot,
                     std::initializer_list<index_t> shape) {
  return workspace<T>(slot,
                      std::span<const index_t>(shape.begin(), shape.size()));
}

}  // namespace turb::fft
