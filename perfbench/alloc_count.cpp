#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

namespace perfbench {
std::uint64_t AllocCount() { return g_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
