#include "src/crypto/hmac.h"

#include <cstring>

#include "src/util/check.h"

namespace nymix {

Sha256Digest HmacSha256(ByteSpan key, ByteSpan message) {
  uint8_t block_key[64] = {0};
  if (key.size() > 64) {
    Sha256Digest digest = Sha256::Hash(key);
    std::memcpy(block_key, digest.data(), digest.size());
  } else if (!key.empty()) {
    // An empty span may carry a null data(), which memcpy must never see.
    std::memcpy(block_key, key.data(), key.size());
  }

  uint8_t ipad[64];
  uint8_t opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ByteSpan(ipad, 64));
  inner.Update(message);
  Sha256Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(ByteSpan(opad, 64));
  outer.Update(ByteSpan(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

Bytes HkdfSha256(ByteSpan input_key, ByteSpan salt, ByteSpan info, size_t length) {
  NYMIX_CHECK(length <= 255 * kSha256DigestSize);
  Sha256Digest prk = HmacSha256(salt, input_key);

  Bytes output;
  output.reserve(length);
  Bytes previous;
  uint8_t counter = 1;
  while (output.size() < length) {
    Bytes block_input = previous;
    block_input.insert(block_input.end(), info.begin(), info.end());
    block_input.push_back(counter++);
    Sha256Digest block = HmacSha256(ByteSpan(prk.data(), prk.size()), block_input);
    previous.assign(block.begin(), block.end());
    size_t take = std::min(previous.size(), length - output.size());
    output.insert(output.end(), previous.begin(), previous.begin() + take);
  }
  return output;
}

Bytes Pbkdf2Sha256(ByteSpan password, ByteSpan salt, uint32_t iterations, size_t length) {
  NYMIX_CHECK(iterations > 0);
  Bytes output;
  output.reserve(length);
  uint32_t block_index = 1;
  while (output.size() < length) {
    Bytes salted(salt.begin(), salt.end());
    for (int i = 3; i >= 0; --i) {
      salted.push_back(static_cast<uint8_t>(block_index >> (8 * i)));
    }
    Sha256Digest u = HmacSha256(password, salted);
    Sha256Digest accum = u;
    for (uint32_t iter = 1; iter < iterations; ++iter) {
      u = HmacSha256(password, ByteSpan(u.data(), u.size()));
      for (size_t i = 0; i < accum.size(); ++i) {
        accum[i] ^= u[i];
      }
    }
    size_t take = std::min(accum.size(), length - output.size());
    output.insert(output.end(), accum.begin(), accum.begin() + take);
    ++block_index;
  }
  return output;
}

}  // namespace nymix
