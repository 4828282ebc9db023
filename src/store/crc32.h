// CRC-32C (Castagnoli) over byte spans — the integrity check on every
// record the persistent store writes. Table-driven, reflected polynomial
// 0x1EDC6F41; pure function of the input bytes, so checksums are identical
// across machines and runs (the store's determinism contract extends to
// its framing).
#ifndef SRC_STORE_CRC32_H_
#define SRC_STORE_CRC32_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace nymix {

// One-shot CRC-32C of `data`.
// nymlint:allow(dead-api): known-answer vectors check the CRC the record log frames use
uint32_t Crc32c(ByteSpan data);

// Incremental form: seed with kCrc32cInit, fold spans in order, finalize.
// Crc32c(a ++ b) == Crc32cFinish(Crc32cUpdate(Crc32cUpdate(kCrc32cInit, a), b)).
inline constexpr uint32_t kCrc32cInit = 0xFFFFFFFFu;
uint32_t Crc32cUpdate(uint32_t state, ByteSpan data);
inline constexpr uint32_t Crc32cFinish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

}  // namespace nymix

#endif  // SRC_STORE_CRC32_H_
