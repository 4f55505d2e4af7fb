// Global operator-new counting hook for the zero-allocation tests.
//
// Include from exactly one translation unit per test binary: it replaces
// every allocation form for that binary. Counting is gated by g_track so
// only the measured windows pay attention; the hooks themselves must not
// allocate.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

namespace {

std::atomic<bool> g_track{false};
std::atomic<std::int64_t> g_allocs{0};

inline void note_alloc() noexcept {
  if (g_track.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void* plain_alloc(std::size_t n) {
  note_alloc();
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* aligned_alloc_impl(std::size_t n, std::size_t align) {
  note_alloc();
  const std::size_t size = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, size ? size : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Heap allocations performed while `body` runs.
std::int64_t count_allocs(const std::function<void()>& body) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_track.store(true, std::memory_order_relaxed);
  body();
  g_track.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) { return plain_alloc(n); }
void* operator new[](std::size_t n) { return plain_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return aligned_alloc_impl(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return aligned_alloc_impl(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
// glibc free() accepts pointers from malloc and aligned_alloc alike.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
