// HMAC-SHA256 (RFC 2104), HKDF (RFC 5869) and PBKDF2 (RFC 8018) built on
// SHA-256. PBKDF2 turns nym passwords into archive keys; HKDF derives
// subkeys from a master secret.
#ifndef SRC_CRYPTO_HMAC_H_
#define SRC_CRYPTO_HMAC_H_

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace nymix {

Sha256Digest HmacSha256(ByteSpan key, ByteSpan message);

// HKDF-Extract then HKDF-Expand; output length up to 255*32 bytes.
Bytes HkdfSha256(ByteSpan input_key, ByteSpan salt, ByteSpan info, size_t length);

// PBKDF2-HMAC-SHA256. `iterations` trades brute-force cost for CPU time.
Bytes Pbkdf2Sha256(ByteSpan password, ByteSpan salt, uint32_t iterations, size_t length);

}  // namespace nymix

#endif  // SRC_CRYPTO_HMAC_H_
