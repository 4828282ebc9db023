// HMAC-SHA256 (RFC 2104) and PBKDF2 (RFC 8018) built on SHA-256. PBKDF2
// turns nym passwords into archive keys.
#ifndef SRC_CRYPTO_HMAC_H_
#define SRC_CRYPTO_HMAC_H_

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace nymix {

// nymlint:allow(dead-api): RFC 4231 known-answer vectors check the keyed HMAC that PBKDF2 runs on
Sha256Digest HmacSha256(ByteSpan key, ByteSpan message);

// PBKDF2-HMAC-SHA256. `iterations` trades brute-force cost for CPU time.
Bytes Pbkdf2Sha256(ByteSpan password, ByteSpan salt, uint32_t iterations, size_t length);

}  // namespace nymix

#endif  // SRC_CRYPTO_HMAC_H_
