// The counting global allocator behind every bench allocation gate
// (harness.hpp: alloc_totals, AllocWindow, measure).  Replacing every
// global operator new form -- plain, array, nothrow and over-aligned --
// makes each heap allocation in the process visible.  The over-aligned
// forms matter: libstdc++'s aligned new calls aligned_alloc directly, so
// without them an alignas(64) allocation escapes the count.  Counting is
// relaxed-atomic, cheap enough not to distort timings.
//
// Link this unit only into the binaries that read the counter: it replaces
// the allocator for the whole process.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

/// Count one allocation of `n` bytes, then make it: malloc for the default
/// alignment (align 0), aligned_alloc past it.
void* counted(std::size_t n, std::size_t align = 0) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (align == 0) return std::malloc(n == 0 ? 1 : n);
  // aligned_alloc takes a nonzero multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace evfl::bench {

AllocTotals alloc_totals() {
  return {g_alloc_count.load(), g_alloc_bytes.load()};
}

}  // namespace evfl::bench

void* operator new(std::size_t n) { return or_throw(counted(n)); }
void* operator new[](std::size_t n) { return or_throw(counted(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, static_cast<std::size_t>(a)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, static_cast<std::size_t>(a)));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
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
