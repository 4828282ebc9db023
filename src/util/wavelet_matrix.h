// WaveletMatrix: a static sequence of values below a bound that answers
// "how many of the first n values are below x" in O(log bound) time, in
// about 1.5 bits per value per level. One bit-level per bit of
// the bound, most significant first; each level stably moves the values
// whose bit is 0 ahead of those whose bit is 1, and keeps the bits it read
// with per-word rank counts. Immutable once built, so concurrent readers
// need no synchronization.
#ifndef SRC_UTIL_WAVELET_MATRIX_H_
#define SRC_UTIL_WAVELET_MATRIX_H_

#include <cstdint>
#include <vector>

namespace nymix {

class WaveletMatrix {
 public:
  WaveletMatrix() = default;
  // Every value must be below `bound`.
  WaveletMatrix(const std::vector<uint32_t>& values, uint64_t bound);

  // #{i < end : values[i] < x}, for end <= values.size().
  uint64_t CountLess(uint64_t end, uint64_t x) const;

 private:
  struct Level {
    std::vector<uint64_t> bits;         // the level's bit of each value, in level order
    std::vector<uint32_t> ones_before;  // set bits in the words before each word
    uint64_t zeros = 0;

    uint64_t Ones(uint64_t end) const;  // set bits among the first `end`
  };

  uint64_t size_ = 0;
  uint64_t bound_ = 0;
  std::vector<Level> levels_;  // most significant bit first
};

}  // namespace nymix

#endif  // SRC_UTIL_WAVELET_MATRIX_H_
