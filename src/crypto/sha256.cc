#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace nymix {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

constexpr uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

uint32_t LoadBigEndian32(const uint8_t* bytes) {
  return (static_cast<uint32_t>(bytes[0]) << 24) | (static_cast<uint32_t>(bytes[1]) << 16) |
         (static_cast<uint32_t>(bytes[2]) << 8) | static_cast<uint32_t>(bytes[3]);
}

// The message schedule and 64 rounds of FIPS 180-4 section 6.2.2 on `Word`:
// uint32_t for the streaming hasher, or a vector whose lanes hash
// independent messages. On entry w[0..15] holds the block's words.
// Always inlined, so each build of the lane kernel compiles it for its own
// instruction set. The rotations are written out because a helper
// returning a 256-bit vector changes the ABI without AVX (-Wpsabi): no
// vector value may cross a call.
template <typename Word>
[[gnu::always_inline]] inline void Compress(Word* state, Word* w) {
  for (int i = 16; i < 64; ++i) {
    Word x = w[i - 15];
    Word y = w[i - 2];
    Word s0 = ((x >> 7) | (x << 25)) ^ ((x >> 18) | (x << 14)) ^ (x >> 3);
    Word s1 = ((y >> 17) | (y << 15)) ^ ((y >> 19) | (y << 13)) ^ (y >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  Word a = state[0], b = state[1], c = state[2], d = state[3];
  Word e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    Word s1 = ((e >> 6) | (e << 26)) ^ ((e >> 11) | (e << 21)) ^ ((e >> 25) | (e << 7));
    Word ch = (e & f) ^ (~e & g);
    Word temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    Word s0 = ((a >> 2) | (a << 30)) ^ ((a >> 13) | (a << 19)) ^ ((a >> 22) | (a << 10));
    Word maj = (a & b) ^ (a & c) ^ (b & c);
    Word temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

constexpr size_t kLanes = 8;
typedef uint32_t LaneWord __attribute__((vector_size(4 * kLanes)));

// HashEach's kernel: messages first..first+7 run in the lanes of one
// LaneWord state; lanes past the end rehash the last message unused.
[[gnu::always_inline]] inline void HashLanes(ByteSpan messages, size_t length,
                                             std::span<Sha256Digest> out) {
  NYMIX_CHECK(messages.size() == out.size() * length);
  // Past its full blocks, every message pads to the same tail (FIPS 180-4
  // section 5.1.1) but for the first length % 64 bytes: 0x80, zeros, and
  // the bit length in the last block's final eight bytes.
  size_t full_blocks = length / 64;
  size_t tail_blocks = length % 64 < 56 ? 1 : 2;
  size_t block_count = full_blocks + tail_blocks;
  uint8_t tail[128] = {};
  tail[length % 64] = 0x80;
  uint64_t bit_length = static_cast<uint64_t>(length) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[64 * tail_blocks - 1 - i] = static_cast<uint8_t>(bit_length >> (8 * i));
  }
  for (size_t first = 0; first < out.size(); first += kLanes) {
    size_t used = std::min(kLanes, out.size() - first);
    LaneWord state[8];
    for (int i = 0; i < 8; ++i) {
      state[i] = LaneWord{} + kInitialState[i];
    }
    for (size_t block = 0; block < block_count; ++block) {
      alignas(LaneWord) uint32_t words[16][kLanes];
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const uint8_t* message = messages.data() + (first + std::min(lane, used - 1)) * length;
        uint8_t padded[64];
        const uint8_t* bytes = padded;
        if (block < full_blocks) {
          bytes = message + 64 * block;
        } else {
          std::memcpy(padded, tail + 64 * (block - full_blocks), 64);
          if (block == full_blocks && length % 64 > 0) {
            std::memcpy(padded, message + 64 * block, length % 64);
          }
        }
        for (int i = 0; i < 16; ++i) {
          words[i][lane] = LoadBigEndian32(bytes + 4 * i);
        }
      }
      LaneWord w[64];
      std::memcpy(w, words, sizeof(words));
      Compress(state, w);
    }
    alignas(LaneWord) uint32_t digest_words[8][kLanes];
    std::memcpy(digest_words, state, sizeof(digest_words));
    for (size_t lane = 0; lane < used; ++lane) {
      for (int i = 0; i < 8; ++i) {
        uint32_t word = digest_words[i][lane];
        uint8_t* bytes = out[first + lane].data() + 4 * i;
        bytes[0] = static_cast<uint8_t>(word >> 24);
        bytes[1] = static_cast<uint8_t>(word >> 16);
        bytes[2] = static_cast<uint8_t>(word >> 8);
        bytes[3] = static_cast<uint8_t>(word);
      }
    }
  }
}

void HashLanesBaseline(ByteSpan messages, size_t length, std::span<Sha256Digest> out) {
  HashLanes(messages, length, out);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void HashLanesAvx2(ByteSpan messages, size_t length,
                                           std::span<Sha256Digest> out) {
  HashLanes(messages, length, out);
}
#endif

}  // namespace

Sha256::Sha256() {
  std::memcpy(state_, kInitialState, sizeof(state_));
}

void Sha256::ProcessBlock(const uint8_t* block) {
  // Byte-wise rather than through LoadBigEndian32: GCC vectorizes this
  // form, and PBKDF2 pays for every cycle here.
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  Compress(state_, w);
}

void Sha256::Update(ByteSpan data) {
  // An empty span may carry a null data(), which memcpy must never see.
  if (data.empty()) {
    return;
  }
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    ProcessBlock(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256Digest Sha256::Finish() {
  uint64_t bit_length = total_bytes_ * 8;
  uint8_t pad[72] = {0x80};
  size_t pad_length = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  Update(ByteSpan(pad, pad_length));
  uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<uint8_t>(bit_length >> (8 * (7 - i)));
  }
  // Update() counted padding into total_bytes_, but the length was captured
  // beforehand, so the message length encoding is correct.
  Update(ByteSpan(length_bytes, 8));

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(ByteSpan data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

Sha256Digest Sha256::Hash(std::string_view text) {
  return Hash(ByteSpan(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
}

void Sha256::HashEach(ByteSpan messages, size_t length, std::span<Sha256Digest> out) {
  // Picked once, from the CPU's feature bits.
  static const Sha256LaneKernel kernel =
      Sha256Avx2Kernel() != nullptr ? Sha256Avx2Kernel() : Sha256BaselineKernel();
  kernel(messages, length, out);
}

Sha256LaneKernel Sha256BaselineKernel() { return HashLanesBaseline; }

Sha256LaneKernel Sha256Avx2Kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    return HashLanesAvx2;
  }
#endif
  return nullptr;
}

Bytes DigestToBytes(const Sha256Digest& digest) {
  return Bytes(digest.begin(), digest.end());
}

uint64_t DigestPrefix64(const Sha256Digest& digest) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value = (value << 8) | digest[i];
  }
  return value;
}

}  // namespace nymix
