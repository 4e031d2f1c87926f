// Allocation counting hooks for decision_index_test and
// decision_cache_test: replaces every form of the global operator
// new/delete (plain, nothrow and over-aligned, so no allocation reaches
// an unreplaced form whose pointer one of these deletes would free) and
// bumps the call and byte counters on each allocation. They live in
// their own translation unit so the replaced operator delete is never
// inlined into a test body, where GCC 12 would see `new` paired with
// std::free and raise -Wmismatched-new-delete. CMake attaches this file
// to those two test targets only.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};

namespace {

void* Allocate(std::size_t size, std::size_t alignment) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (alignment <= alignof(std::max_align_t)) {
    return std::malloc(size == 0 ? 1 : size);
  }
  // aligned_alloc takes a non-zero multiple of the alignment.
  const std::size_t rounded =
      size == 0 ? alignment : (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

void* AllocateOrThrow(std::size_t size, std::size_t alignment) {
  if (void* p = Allocate(size, alignment)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
