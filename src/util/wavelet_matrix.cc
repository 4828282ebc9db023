#include "src/util/wavelet_matrix.h"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "src/util/check.h"

namespace nymix {

WaveletMatrix::WaveletMatrix(const std::vector<uint32_t>& values, uint64_t bound)
    : size_(values.size()), bound_(bound) {
  NYMIX_CHECK(std::all_of(values.begin(), values.end(), [bound](uint32_t v) { return v < bound; }));
  const size_t words = values.size() / 64 + 1;
  std::vector<uint32_t> order = values;
  std::vector<uint32_t> zeros(values.size());
  std::vector<uint32_t> ones(values.size());
  for (int bit = std::bit_width(bound > 0 ? bound - 1 : 0); bit-- > 0;) {
    Level& level = levels_.emplace_back();
    level.bits.resize(words);
    level.ones_before.assign(words + 1, 0);
    // One pass per level, without a branch on the bit: each value is
    // written to both sides and kept by the side its bit selects.
    size_t zero_at = 0;
    size_t one_at = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = 0;
      for (size_t i = w * 64; i < std::min(order.size(), w * 64 + 64); ++i) {
        uint32_t value = order[i];
        uint64_t set = (value >> bit) & 1;
        word |= set << (i % 64);
        zeros[zero_at] = value;
        ones[one_at] = value;
        zero_at += 1 - set;
        one_at += set;
      }
      level.bits[w] = word;
      level.ones_before[w + 1] = level.ones_before[w] + static_cast<uint32_t>(std::popcount(word));
    }
    level.zeros = zero_at;
    std::copy(zeros.begin(), zeros.begin() + static_cast<std::ptrdiff_t>(zero_at), order.begin());
    std::copy(ones.begin(), ones.begin() + static_cast<std::ptrdiff_t>(one_at),
              order.begin() + static_cast<std::ptrdiff_t>(zero_at));
  }
}

uint64_t WaveletMatrix::Level::Ones(uint64_t end) const {
  uint64_t mask = (uint64_t{1} << (end % 64)) - 1;
  return ones_before[end / 64] + static_cast<uint64_t>(std::popcount(bits[end / 64] & mask));
}

uint64_t WaveletMatrix::CountLess(uint64_t end, uint64_t x) const {
  NYMIX_CHECK(end <= size_);
  if (x >= bound_) {
    return end;
  }
  uint64_t begin = 0;
  uint64_t below = 0;
  int bit = static_cast<int>(levels_.size());
  for (const Level& level : levels_) {
    --bit;
    uint64_t ones_begin = level.Ones(begin);
    uint64_t ones_end = level.Ones(end);
    if ((x >> bit) & 1) {
      // Values whose bit here is 0 agree with x above it and are below it.
      below += (end - ones_end) - (begin - ones_begin);
      begin = level.zeros + ones_begin;
      end = level.zeros + ones_end;
    } else {
      begin -= ones_begin;
      end -= ones_end;
    }
  }
  return below;
}

}  // namespace nymix
