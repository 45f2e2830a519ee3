#include "tensor/pool.hpp"

#include <new>
#include <unordered_map>

// Compile the pool out under sanitizers: recycling would blind ASan to
// use-after-free on tensor buffers and hide allocation ordering from TSan.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EVFL_TENSOR_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EVFL_TENSOR_POOL_DISABLED 1
#endif
#endif

namespace evfl::tensor {

#ifdef EVFL_TENSOR_POOL_DISABLED

void* pool_allocate(std::size_t bytes) {
  return ::operator new(bytes == 0 ? 1 : bytes);
}
void pool_deallocate(void* p, std::size_t) noexcept { ::operator delete(p); }

#else

namespace {

// Blocks above this size are never parked (a handful of huge pipeline
// buffers must not pin memory forever); buckets are capped so a burst of
// temporaries cannot hoard unbounded storage.
constexpr std::size_t kMaxPooledBytes = std::size_t{64} << 20;
constexpr std::size_t kMaxBlocksPerBucket = 64;

struct FreeLists {
  std::unordered_map<std::size_t, std::vector<void*>> buckets;

  ~FreeLists() {
    for (auto& [size, blocks] : buckets) {
      for (void* p : blocks) ::operator delete(p);
    }
    buckets.clear();
  }
};

FreeLists& lists() {
  static thread_local FreeLists fl;
  return fl;
}

}  // namespace

void* pool_allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  FreeLists& fl = lists();
  if (bytes <= kMaxPooledBytes) {
    auto it = fl.buckets.find(bytes);
    if (it != fl.buckets.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      return p;
    }
  }
  return ::operator new(bytes);
}

void pool_deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes <= kMaxPooledBytes) {
    FreeLists& fl = lists();
    std::vector<void*>& bucket = fl.buckets[bytes];
    if (bucket.size() < kMaxBlocksPerBucket) {
      // Growing the bucket vector itself can throw; a full/failed park
      // falls through to a plain free.
      try {
        bucket.push_back(p);
        return;
      } catch (...) {
      }
    }
  }
  ::operator delete(p);
}

#endif  // EVFL_TENSOR_POOL_DISABLED

}  // namespace evfl::tensor
