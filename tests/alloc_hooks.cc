// Allocation counting hooks for decision_index_test: replaces the
// global operator new/delete so every allocation in the binary bumps
// the call and byte counters. They live in their own translation unit
// so the replaced operator delete is never inlined into a test body,
// where GCC 12 would see `new` paired with std::free and raise
// -Wmismatched-new-delete. CMake attaches this file to that one test
// target only.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
