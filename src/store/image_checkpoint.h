// Checkpoint/restore for BaseImage construction artifacts — the expensive,
// immutable part of standing up a fleet. Cold-building a 64 MiB
// distribution image hashes every 4 KiB block and builds a Merkle tree
// over 16K leaves; the checkpoint stores exactly those artifacts (block
// digest table + full tree levels) in the KV store, keyed by the image's
// identity (name, seed, size), so a warm start rebuilds only images whose
// identity changed — O(changed), not O(fleet).
//
// Only construction-time state is checkpointed. The image contents are a
// pure function of (name, seed, size), so a restored image is bit-equal to
// a cold-built one and a warm-started fleet replays the exact same event
// stream — byte-identical traces, which the warm-start CI smoke asserts.
#ifndef SRC_STORE_IMAGE_CHECKPOINT_H_
#define SRC_STORE_IMAGE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "src/store/kv_store.h"
#include "src/unionfs/disk_image.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace nymix {

// "image/<name>/<seed>/<size_bytes>" — the KV key an image checkpoints to.
std::string ImageCheckpointKey(const std::string& name, uint64_t seed, uint64_t size_bytes);

Bytes EncodeImageCheckpoint(const BaseImage& image);
Result<std::shared_ptr<const BaseImage>> DecodeImageCheckpoint(ByteSpan payload);

// Find-or-build: returns the (name, seed, size) image from `store` when a
// valid checkpoint exists, otherwise cold-builds it and writes the
// checkpoint back. `cold_built`, when non-null, reports which path ran.
Result<std::shared_ptr<const BaseImage>> AcquireDistributionImage(KvStore& store,
                                                                  const std::string& name,
                                                                  uint64_t seed,
                                                                  uint64_t size_bytes,
                                                                  bool* cold_built = nullptr);

}  // namespace nymix

#endif  // SRC_STORE_IMAGE_CHECKPOINT_H_
