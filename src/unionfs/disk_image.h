// BaseImage: the read-only OS partition on the Nymix USB stick, one
// immutable object shared as the bottom union-fs layer by the host and
// every AnonVM/CommVM (§3.4).
// It exposes a block-level view (content ids + Merkle tree) so the
// hypervisor can verify blocks against a well-known root before handing
// them to a VM, and so KSM can dedup identically-backed guest pages.
//
// VmDisk: a capacity-limited union stack (base + config + writable) given
// to one VM; all writes land in RAM.
#ifndef SRC_UNIONFS_DISK_IMAGE_H_
#define SRC_UNIONFS_DISK_IMAGE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/merkle.h"
#include "src/unionfs/union_fs.h"
#include "src/util/prng.h"

namespace nymix {

inline constexpr uint64_t kDiskBlockSize = 4096;

// The content ids of an image's blocks, ranked: what guest memory needs to
// describe image-backed pages without storing them page by page. Built
// once, next to the block digests it derives from, and immutable after
// that, so any number of memories and threads can share it.
class ImageContents {
 public:
  // `identity` names the content: two views with equal identities hold the
  // same content id in every block, whichever image object built them.
  ImageContents(const std::vector<Sha256Digest>& block_digests, const Sha256Digest& identity);

  const Sha256Digest& identity() const { return identity_; }
  uint64_t block_count() const { return ranks_.size(); }
  // Distinct block content ids, ascending.
  const std::vector<uint64_t>& ids() const { return ids_; }
  // Per block, the index into ids() of its content id.
  const std::vector<uint32_t>& ranks() const { return ranks_; }

 private:
  Sha256Digest identity_;
  std::vector<uint64_t> ids_;
  std::vector<uint32_t> ranks_;
};

class BaseImage {
 public:
  // The synthetic distribution image: `size_bytes` of blocks whose
  // contents derive from `seed`, plus a populated root filesystem
  // (/etc, /usr, browser and anonymizer binaries) used by the union stacks.
  // Interned: every call with an equal (name, seed, size_bytes), on any
  // thread, returns the same image, built once per process. Its published
  // root is built from these same digests, so it verifies by construction.
  static std::shared_ptr<const BaseImage> CreateDistribution(std::string name, uint64_t seed,
                                                             uint64_t size_bytes);

  // Warm-start path: rebuilds an image from checkpointed block digests and
  // Merkle levels (src/store/image_checkpoint), skipping the per-block
  // hashing that dominates a cold build. The cheap synthetic filesystem is
  // repopulated from (name, seed) as usual. Not interned. Fails when the
  // digest count does not match `size_bytes` or the leaf hashes do not
  // correspond to the digests (spot-checked); a checkpoint whose digests
  // drifted from its tree elsewhere yields an image whose verified() is
  // false.
  static Result<std::shared_ptr<const BaseImage>> CreateDistributionFromCheckpoint(
      std::string name, uint64_t seed, uint64_t size_bytes,
      std::vector<Sha256Digest> block_digests, MerkleTree merkle);

  // Simulates another OS modifying the partition while the USB stick was
  // plugged in elsewhere: a new, non-interned image whose block
  // `block_index` changed while the published root did not, so its
  // verified() is false. This image is left as it was.
  std::shared_ptr<const BaseImage> TamperedCopy(uint64_t block_index, uint64_t new_seed) const;

  const std::string& name() const { return name_; }
  uint64_t seed() const { return seed_; }
  uint64_t size_bytes() const { return size_bytes_; }
  uint64_t block_count() const { return size_bytes_ / kDiskBlockSize; }

  // On-disk block digest table (checkpoint source).
  const std::vector<Sha256Digest>& block_digests() const { return block_digests_; }

  // Shared read-only filesystem view of the image.
  std::shared_ptr<const MemFs> fs() const { return fs_; }

  // 64-bit content identity of a block; identical across VMs using this
  // image, which is what makes KSM effective.
  uint64_t BlockContentId(uint64_t block_index) const;

  // The blocks' contents as one shared view. Its identity is the Merkle
  // root of the block digests this image holds.
  const std::shared_ptr<const ImageContents>& contents() const { return contents_; }

  // Block digest as read "from disk" — reflects tampering.
  Sha256Digest ReadBlockDigest(uint64_t block_index) const;

  const MerkleTree& merkle() const { return merkle_; }
  const Sha256Digest& merkle_root() const { return merkle_.root(); }

  // Whether every block matches the published root (§3.4), fixed when the
  // image was built. Equal to VerifyAllBlocks(), without its cost.
  bool verified() const { return verified_; }

  // Verifies a block read against the well-known root (§3.4 mechanism).
  bool VerifyBlock(uint64_t block_index) const;

  // Verifies every block at once by rebuilding the tree bottom-up and
  // comparing the recomputed root against the published one. Equivalent to
  // VerifyBlock over all blocks but ~8x cheaper (one tree rebuild instead
  // of a log-depth proof per leaf). Recomputed on every call; verified()
  // must equal it.
  bool VerifyAllBlocks() const;

 private:
  // Fixes the image's digests and its verdict. Without a `published` tree,
  // the tree is built from `block_digests` and verifies by construction;
  // with one, the tree is rebuilt from the digests and its root compared
  // against the published root.
  BaseImage(std::string name, uint64_t seed, uint64_t size_bytes, std::shared_ptr<const MemFs> fs,
            std::vector<Sha256Digest> block_digests, std::optional<MerkleTree> published);

  const std::string name_;
  const uint64_t seed_;
  const uint64_t size_bytes_;
  const std::shared_ptr<const MemFs> fs_;
  const std::vector<Sha256Digest> block_digests_;  // on-disk state
  const MerkleTree merkle_;                        // published at distribution time
  const std::shared_ptr<const ImageContents> contents_;
  const bool verified_;
};

class VmDisk {
 public:
  // `config` may be null (no configuration layer).
  VmDisk(std::shared_ptr<const BaseImage> base, std::shared_ptr<const MemFs> config,
         uint64_t writable_capacity);

  UnionFs& fs() { return *union_fs_; }
  const UnionFs& fs() const { return *union_fs_; }

  // Capacity-enforcing write into the RAM-backed layer.
  Status WriteFile(std::string_view path, Blob content);

  uint64_t writable_capacity() const { return writable_capacity_; }
  uint64_t writable_used() const { return union_fs_->WritableBytes(); }

  const std::shared_ptr<const BaseImage>& base() const { return base_; }

  void DiscardWritable() { union_fs_->DiscardWritable(); }

 private:
  std::shared_ptr<const BaseImage> base_;
  uint64_t writable_capacity_;
  std::shared_ptr<MemFs> writable_;
  std::unique_ptr<UnionFs> union_fs_;
};

}  // namespace nymix

#endif  // SRC_UNIONFS_DISK_IMAGE_H_
