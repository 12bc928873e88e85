#include "heap.h"

#include <errno.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>

#if !defined(__GLIBC__)
#error "zbbench counts the heap through glibc's __libc_* allocator entry points"
#endif

extern "C" {
void* __libc_malloc(size_t size);
void* __libc_calloc(size_t count, size_t size);
void* __libc_realloc(void* ptr, size_t size);
void* __libc_memalign(size_t alignment, size_t size);
void* __libc_valloc(size_t size);
void* __libc_pvalloc(size_t size);
void __libc_free(void* ptr);
}

namespace zbbench {
namespace {

// Constant-initialized, so valid for allocations made before main().
std::atomic<int64_t> g_live{0};
alignas(64) std::atomic<int64_t> g_peak{0};

void Grow(void* p) {
  if (p == nullptr) return;
  const auto n = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void Shrink(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* Track(void* p) {
  Grow(p);
  return p;
}

}  // namespace

int64_t HeapResetPeak() {
  const int64_t now = g_live.load(std::memory_order_relaxed);
  g_peak.store(now, std::memory_order_relaxed);
  return now;
}

int64_t HeapPeakBytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace zbbench

extern "C" {

void* malloc(size_t size) noexcept {
  return zbbench::Track(__libc_malloc(size));
}

void* calloc(size_t count, size_t size) noexcept {
  return zbbench::Track(__libc_calloc(count, size));
}

void* realloc(void* ptr, size_t size) noexcept {
  // Counted as a free of the old block and an allocation of the new one;
  // on failure the old block stays allocated and is counted back.
  zbbench::Shrink(ptr);
  void* p = __libc_realloc(ptr, size);
  zbbench::Grow(p != nullptr || size == 0 ? p : ptr);
  return p;
}

void free(void* ptr) noexcept {
  zbbench::Shrink(ptr);
  __libc_free(ptr);
}

void* memalign(size_t alignment, size_t size) noexcept {
  return zbbench::Track(__libc_memalign(alignment, size));
}

void* aligned_alloc(size_t alignment, size_t size) noexcept {
  return zbbench::Track(__libc_memalign(alignment, size));
}

int posix_memalign(void** out, size_t alignment, size_t size) noexcept {
  if (alignment % sizeof(void*) != 0 ||
      (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  void* p = zbbench::Track(__libc_memalign(alignment, size));
  if (p == nullptr) return ENOMEM;
  *out = p;
  return 0;
}

void* valloc(size_t size) noexcept {
  return zbbench::Track(__libc_valloc(size));
}

void* pvalloc(size_t size) noexcept {
  return zbbench::Track(__libc_pvalloc(size));
}

}  // extern "C"
