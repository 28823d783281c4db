// Global operator new replacement that counts heap allocations per thread.
//
// The count is thread-local, so a layer's allocations are attributed to
// the thread that called into it (sharded workers never pollute the
// producer's numbers). Counting is switched on only in traced runs; with
// it off the replacement costs one relaxed load per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.hpp"

namespace {

std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_allocs = 0;

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t thread_allocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
