// Counting global operator new for the benchmark binaries: every heap
// allocation the program makes is counted, so allocations per simulated event
// can be reported as an exact work count.

#include <atomic>
#include <cstdlib>
#include <new>

#include "probes.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t ecnd::bench::allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
