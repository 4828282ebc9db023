#include "src/store/image_checkpoint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"

namespace nymix {

namespace {

void AppendDigest(Bytes& out, const Sha256Digest& digest) {
  out.insert(out.end(), digest.begin(), digest.end());
}

Result<Sha256Digest> ReadDigest(ByteSpan data, size_t& offset) {
  if (data.size() - offset < kSha256DigestSize) {
    return DataLossError("image checkpoint: short digest");
  }
  Sha256Digest digest;
  std::copy(data.begin() + static_cast<ptrdiff_t>(offset),
            data.begin() + static_cast<ptrdiff_t>(offset + kSha256DigestSize), digest.begin());
  offset += kSha256DigestSize;
  return digest;
}

}  // namespace

std::string ImageCheckpointKey(const std::string& name, uint64_t seed, uint64_t size_bytes) {
  return "image/" + name + "/" + std::to_string(seed) + "/" + std::to_string(size_bytes);
}

Bytes EncodeImageCheckpoint(const BaseImage& image) {
  Bytes payload;
  AppendLengthPrefixed(payload, BytesFromString(image.name()));
  AppendU64(payload, image.seed());
  AppendU64(payload, image.size_bytes());
  AppendU32(payload, static_cast<uint32_t>(image.block_digests().size()));
  for (const Sha256Digest& digest : image.block_digests()) {
    AppendDigest(payload, digest);
  }
  const auto& levels = image.merkle().levels();
  AppendU32(payload, static_cast<uint32_t>(levels.size()));
  for (const auto& level : levels) {
    AppendU32(payload, static_cast<uint32_t>(level.size()));
    for (const Sha256Digest& node : level) {
      AppendDigest(payload, node);
    }
  }
  return payload;
}

Result<std::shared_ptr<const BaseImage>> DecodeImageCheckpoint(ByteSpan payload) {
  size_t offset = 0;
  NYMIX_ASSIGN_OR_RETURN(Bytes name_bytes, ReadLengthPrefixed(payload, offset));
  NYMIX_ASSIGN_OR_RETURN(uint64_t seed, ReadU64(payload, offset));
  NYMIX_ASSIGN_OR_RETURN(uint64_t size_bytes, ReadU64(payload, offset));
  NYMIX_ASSIGN_OR_RETURN(uint32_t n_digests, ReadU32(payload, offset));
  if (static_cast<uint64_t>(n_digests) * kSha256DigestSize > payload.size() - offset) {
    return DataLossError("image checkpoint: digest table exceeds payload");
  }
  std::vector<Sha256Digest> digests;
  digests.reserve(n_digests);
  for (uint32_t i = 0; i < n_digests; ++i) {
    NYMIX_ASSIGN_OR_RETURN(Sha256Digest digest, ReadDigest(payload, offset));
    digests.push_back(digest);
  }
  NYMIX_ASSIGN_OR_RETURN(uint32_t n_levels, ReadU32(payload, offset));
  std::vector<std::vector<Sha256Digest>> levels;
  levels.reserve(n_levels);
  for (uint32_t l = 0; l < n_levels; ++l) {
    NYMIX_ASSIGN_OR_RETURN(uint32_t n_nodes, ReadU32(payload, offset));
    if (static_cast<uint64_t>(n_nodes) * kSha256DigestSize > payload.size() - offset) {
      return DataLossError("image checkpoint: merkle level exceeds payload");
    }
    std::vector<Sha256Digest> level;
    level.reserve(n_nodes);
    for (uint32_t i = 0; i < n_nodes; ++i) {
      NYMIX_ASSIGN_OR_RETURN(Sha256Digest node, ReadDigest(payload, offset));
      level.push_back(node);
    }
    levels.push_back(std::move(level));
  }
  if (offset != payload.size()) {
    return DataLossError("image checkpoint: trailing bytes");
  }
  NYMIX_ASSIGN_OR_RETURN(MerkleTree merkle, MerkleTree::FromLevels(std::move(levels)));
  return BaseImage::CreateDistributionFromCheckpoint(StringFromBytes(name_bytes), seed, size_bytes,
                                                     std::move(digests), std::move(merkle));
}

Result<std::shared_ptr<const BaseImage>> AcquireDistributionImage(KvStore& store,
                                                                  const std::string& name,
                                                                  uint64_t seed,
                                                                  uint64_t size_bytes,
                                                                  bool* cold_built) {
  const std::string key = ImageCheckpointKey(name, seed, size_bytes);
  if (store.Contains(key)) {
    Result<ByteSpan> payload = store.Get(key);
    NYMIX_RETURN_IF_ERROR(payload.status());
    Result<std::shared_ptr<const BaseImage>> restored = DecodeImageCheckpoint(*payload);
    if (restored.ok()) {
      if (cold_built != nullptr) {
        *cold_built = false;
      }
      return restored;
    }
    // A stale or malformed checkpoint falls through to a cold build that
    // overwrites it — warm start must never be able to wedge a bench.
  }
  std::shared_ptr<const BaseImage> image = BaseImage::CreateDistribution(name, seed, size_bytes);
  store.Put(key, EncodeImageCheckpoint(*image));
  if (cold_built != nullptr) {
    *cold_built = true;
  }
  return image;
}

}  // namespace nymix
