// SHA-256 (FIPS 180-4). Used for key derivation, archive integrity, Merkle
// base-image verification, and deterministic guard seeding. The streaming
// hasher compresses one block at a time; HashEach hashes a batch of
// equal-length records (base-image block digests, Merkle levels) eight at a
// time through the same round function, instantiated on an 8-lane vector.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/util/bytes.h"

namespace nymix {

inline constexpr size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  void Update(ByteSpan data);
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(ByteSpan data);
  static Sha256Digest Hash(std::string_view text);

  // Hashes out.size() messages of `length` bytes each, laid end to end in
  // `messages`: out[i] is Hash() of message i. Eight messages share each
  // compression step, one per vector lane.
  static void HashEach(ByteSpan messages, size_t length, std::span<Sha256Digest> out);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

// HashEach's eight-lane kernel, one build per instruction set. HashEach
// runs the fastest build the CPU supports, picked once; tests run each.
using Sha256LaneKernel = void (*)(ByteSpan messages, size_t length, std::span<Sha256Digest> out);
Sha256LaneKernel Sha256BaselineKernel();
// Null unless the target is x86-64 and the CPU has AVX2.
Sha256LaneKernel Sha256Avx2Kernel();

// Digest helpers used throughout the tree.
Bytes DigestToBytes(const Sha256Digest& digest);
uint64_t DigestPrefix64(const Sha256Digest& digest);

}  // namespace nymix

#endif  // SRC_CRYPTO_SHA256_H_
