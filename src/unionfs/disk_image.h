// BaseImage: the read-only OS partition on the Nymix USB stick, shared as
// the bottom union-fs layer by the host and every AnonVM/CommVM (§3.4).
// It exposes a block-level view (content ids + Merkle tree) so the
// hypervisor can verify blocks against a well-known root before handing
// them to a VM, and so KSM can dedup identically-backed guest pages.
//
// VmDisk: a capacity-limited union stack (base + config + writable) given
// to one VM; all writes land in RAM.
#ifndef SRC_UNIONFS_DISK_IMAGE_H_
#define SRC_UNIONFS_DISK_IMAGE_H_

#include <memory>
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
  // Builds a synthetic distribution image: `size_bytes` of blocks whose
  // contents derive from `seed`, plus a populated root filesystem
  // (/etc, /usr, browser and anonymizer binaries) used by the union stacks.
  static std::shared_ptr<BaseImage> CreateDistribution(std::string name, uint64_t seed,
                                                       uint64_t size_bytes);

  // Warm-start path: rebuilds an image from checkpointed block digests and
  // Merkle levels (src/store/image_checkpoint), skipping the per-block
  // hashing and tree build that dominate CreateDistribution. The cheap
  // synthetic filesystem is repopulated from (name, seed) as usual, so the
  // result is indistinguishable from a cold-built image. Fails when the
  // digest count does not match `size_bytes` or the leaf hashes do not
  // correspond to the digests (spot-checked).
  static Result<std::shared_ptr<BaseImage>> CreateDistributionFromCheckpoint(
      std::string name, uint64_t seed, uint64_t size_bytes,
      std::vector<Sha256Digest> block_digests, MerkleTree merkle);

  const std::string& name() const { return name_; }
  uint64_t seed() const { return seed_; }
  uint64_t size_bytes() const { return size_bytes_; }
  uint64_t block_count() const { return size_bytes_ / kDiskBlockSize; }

  // Current on-disk block digest table (checkpoint source).
  const std::vector<Sha256Digest>& block_digests() const { return block_digests_; }

  // Shared read-only filesystem view of the image.
  std::shared_ptr<const MemFs> fs() const { return fs_; }

  // 64-bit content identity of a block; identical across VMs using this
  // image, which is what makes KSM effective.
  uint64_t BlockContentId(uint64_t block_index) const;

  // The blocks' current contents as one shared view. Its identity is the
  // Merkle root of the current block digests. TamperBlock installs a new
  // view, so memory mapped earlier keeps the content it was mapped with.
  const std::shared_ptr<const ImageContents>& contents() const { return contents_; }

  // Block digest as read "from disk" — reflects tampering.
  Sha256Digest ReadBlockDigest(uint64_t block_index) const;

  const MerkleTree& merkle() const { return merkle_; }
  const Sha256Digest& merkle_root() const { return merkle_.root(); }

  // Verifies a block read against the well-known root (§3.4 mechanism).
  bool VerifyBlock(uint64_t block_index) const;

  // Verifies every block at once by rebuilding the tree bottom-up and
  // comparing the recomputed root against the published one. Equivalent to
  // VerifyBlock over all blocks but ~8x cheaper (one tree rebuild instead
  // of a log-depth proof per leaf), and memoized by mutation_count so
  // repeated full-image checks between tampers are free. Used by the
  // hypervisor's pre-boot whole-image check.
  bool VerifyAllBlocks() const;

  // Simulates another OS modifying the partition while the USB stick was
  // plugged in elsewhere: the stored block changes, the published root
  // does not.
  void TamperBlock(uint64_t block_index, uint64_t new_seed);

  // Bumped on every TamperBlock; verification layers use it to cache a
  // full-image check.
  uint64_t mutation_count() const { return mutation_count_; }

 private:
  BaseImage() = default;

  std::string name_;
  uint64_t seed_ = 0;
  uint64_t size_bytes_ = 0;
  std::shared_ptr<MemFs> fs_;
  std::vector<Sha256Digest> block_digests_;  // current on-disk state
  MerkleTree merkle_;                        // built at distribution time
  std::shared_ptr<const ImageContents> contents_;
  uint64_t mutation_count_ = 0;
  // VerifyAllBlocks memo: last mutation epoch checked and its verdict.
  mutable int64_t verified_mutation_ = -1;
  mutable bool verified_ok_ = false;
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
