// The counting allocator (bench/alloc_counter.cpp) must see every global
// operator new form exactly once, the over-aligned ones included: an
// allocation it misses inside a measured region would pass a bench's
// --check-allocs gate unseen.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>

#include "harness.hpp"

namespace {

using evfl::bench::AllocWindow;

struct alignas(64) Wide {
  float lanes[16];
};

// Publishing each pointer through a volatile keeps the compiler from
// eliding the new/delete pair it could otherwise prove unused.
void* volatile g_sink = nullptr;

TEST(AllocCounter, OverAlignedNewCountsOnce) {
  AllocWindow window;
  Wide* p = new Wide;
  g_sink = p;
  EXPECT_EQ(window.take().count, 1u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(Wide), 0u);
  delete p;
}

TEST(AllocCounter, PlainNewCountsOnce) {
  AllocWindow window;
  int* p = new int;
  g_sink = p;
  const evfl::bench::AllocTotals spent = window.take();
  EXPECT_EQ(spent.count, 1u);
  EXPECT_EQ(spent.bytes, sizeof(int));
  delete p;
}

TEST(AllocCounter, ArrayAndNothrowFormsCountOnce) {
  AllocWindow window;
  Wide* wide_array = new Wide[3];
  g_sink = wide_array;
  EXPECT_EQ(window.take().count, 1u);
  Wide* wide_nothrow = new (std::nothrow) Wide;
  g_sink = wide_nothrow;
  EXPECT_EQ(window.take().count, 1u);
  int* int_nothrow = new (std::nothrow) int;
  g_sink = int_nothrow;
  EXPECT_EQ(window.take().count, 1u);
  int* int_array = new int[5];
  g_sink = int_array;
  EXPECT_EQ(window.take().count, 1u);
  delete[] int_array;
  delete int_nothrow;
  delete wide_nothrow;
  delete[] wide_array;
}

}  // namespace
