// Deterministic pseudo-random number generator (xoshiro256**) used across
// the simulation. All randomness in Nymix flows from explicitly seeded Prng
// instances so that every experiment is reproducible bit-for-bit.
#ifndef SRC_UTIL_PRNG_H_
#define SRC_UTIL_PRNG_H_

#include <cstdint>
#include <string_view>

#include "src/util/bytes.h"

namespace nymix {

// SplitMix64 step; also used standalone for cheap content-id hashing.
uint64_t SplitMix64(uint64_t& state);

// Stateless 64-bit mix of a single value.
uint64_t Mix64(uint64_t value);

// 64-bit FNV-1a hash of a byte string; used for content ids, not security.
uint64_t Fnv1a64(ByteSpan data);
uint64_t Fnv1a64(std::string_view text);

class Prng {
 public:
  explicit Prng(uint64_t seed);

  // Uniform over the full 64-bit range.
  uint64_t NextU64();

  // Uniform in [0, bound); bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive; lo must be <= hi.
  // nymlint:allow(dead-api): property and determinism tests draw bounded sizes from it
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Fills a buffer with pseudo-random bytes.
  Bytes NextBytes(size_t count);

  // Derives an independent child generator from this one plus a label, so
  // components can each own a stream without perturbing one another.
  Prng Fork(std::string_view label);

 private:
  uint64_t s_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace nymix

#endif  // SRC_UTIL_PRNG_H_
