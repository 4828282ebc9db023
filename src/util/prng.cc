#include "src/util/prng.h"

#include "src/util/check.h"

namespace nymix {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t value) {
  uint64_t state = value;
  return SplitMix64(state);
}

uint64_t Fnv1a64(ByteSpan data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t b : data) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t Fnv1a64(std::string_view text) {
  return Fnv1a64(ByteSpan(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
}

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Prng::Prng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Prng::NextU64() {
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Prng::NextBelow(uint64_t bound) {
  NYMIX_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = bound * (UINT64_MAX / bound);
  uint64_t value = NextU64();
  while (value >= limit) {
    value = NextU64();
  }
  return value % bound;
}

uint64_t Prng::NextInRange(uint64_t lo, uint64_t hi) {
  NYMIX_CHECK(lo <= hi);
  return lo + NextBelow(hi - lo + 1);
}

double Prng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

Bytes Prng::NextBytes(size_t count) {
  Bytes out;
  out.reserve(count);
  while (out.size() < count) {
    uint64_t word = NextU64();
    for (int i = 0; i < 8 && out.size() < count; ++i) {
      out.push_back(static_cast<uint8_t>(word >> (8 * i)));
    }
  }
  return out;
}

Prng Prng::Fork(std::string_view label) {
  return Prng(NextU64() ^ Fnv1a64(label));
}

}  // namespace nymix
