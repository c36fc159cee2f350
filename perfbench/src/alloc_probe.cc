#include "alloc_probe.h"

#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(size_t n, std::align_val_t al) {
  ++t_allocs;
  const size_t a = size_t(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
uint64_t ThreadAllocs() { return t_allocs; }
}  // namespace perfbench

// GCC flags free() inside a replaced operator new/delete pair as a
// mismatched allocation; the pairing is exact (malloc/aligned_alloc <-> free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
