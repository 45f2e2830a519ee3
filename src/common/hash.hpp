// Stateless hashing shared by every module that derives deterministic
// decisions or sub-seeds from (seed, id, round, ...) tuples.
#pragma once

#include <cstdint>

namespace evfl {

/// splitmix64 finalizer: cheap, well-mixed and stateless — the right shape
/// for schedule-independent per-(client, round) decisions and for deriving
/// independent sub-seeds.  splitmix64(0) == 0xE220A8397B1DCDAF.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace evfl
