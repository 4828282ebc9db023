#include "src/crypto/hmac.h"

#include <cstring>

#include "src/util/check.h"

namespace nymix {

namespace {

// HMAC-SHA256 under one key, with K^ipad and K^opad compressed once
// (RFC 2104 section 4). Mac() finishes copies of the two states, so the
// key is never padded or compressed again and each MAC over at most 55
// bytes costs two compressions instead of four.
class KeyedHmac {
 public:
  explicit KeyedHmac(ByteSpan key) {
    uint8_t block_key[64] = {0};
    if (key.size() > 64) {
      Sha256Digest digest = Sha256::Hash(key);
      std::memcpy(block_key, digest.data(), digest.size());
    } else if (!key.empty()) {
      // An empty span may carry a null data(), which memcpy must never see.
      std::memcpy(block_key, key.data(), key.size());
    }

    uint8_t pad[64];
    for (int i = 0; i < 64; ++i) {
      pad[i] = block_key[i] ^ 0x36;
    }
    inner_.Update(ByteSpan(pad, 64));
    for (int i = 0; i < 64; ++i) {
      pad[i] = block_key[i] ^ 0x5c;
    }
    outer_.Update(ByteSpan(pad, 64));
  }

  Sha256Digest Mac(ByteSpan message) const {
    Sha256 inner = inner_;
    inner.Update(message);
    Sha256Digest inner_digest = inner.Finish();

    Sha256 outer = outer_;
    outer.Update(ByteSpan(inner_digest.data(), inner_digest.size()));
    return outer.Finish();
  }

 private:
  Sha256 inner_;
  Sha256 outer_;
};

}  // namespace

Sha256Digest HmacSha256(ByteSpan key, ByteSpan message) {
  return KeyedHmac(key).Mac(message);
}

Bytes Pbkdf2Sha256(ByteSpan password, ByteSpan salt, uint32_t iterations, size_t length) {
  NYMIX_CHECK(iterations > 0);
  KeyedHmac prf(password);
  Bytes output;
  output.reserve(length);
  uint32_t block_index = 1;
  while (output.size() < length) {
    Bytes salted(salt.begin(), salt.end());
    for (int i = 3; i >= 0; --i) {
      salted.push_back(static_cast<uint8_t>(block_index >> (8 * i)));
    }
    Sha256Digest u = prf.Mac(salted);
    Sha256Digest accum = u;
    for (uint32_t iter = 1; iter < iterations; ++iter) {
      u = prf.Mac(ByteSpan(u.data(), u.size()));
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
