#include "src/unionfs/disk_image.h"

#include <algorithm>
#include <utility>

namespace nymix {

namespace {

// Stable per-block digest material: 16 bytes of (seed, index).
Sha256Digest BlockDigestFor(uint64_t seed, uint64_t block_index) {
  Bytes material;
  AppendU64(material, seed);
  AppendU64(material, block_index);
  return Sha256::Hash(material);
}

void PopulateDistributionFs(MemFs& fs, const std::string& name, uint64_t seed) {
  Prng prng(seed);
  NYMIX_CHECK(fs.Mkdir("/etc", true).ok());
  NYMIX_CHECK(fs.Mkdir("/usr/bin", true).ok());
  NYMIX_CHECK(fs.Mkdir("/usr/share/" + name, true).ok());
  NYMIX_CHECK(fs.Mkdir("/var/lib", true).ok());
  NYMIX_CHECK(fs.Mkdir("/home/user", true).ok());

  NYMIX_CHECK(fs.WriteFile("/etc/hostname", Blob::FromString(name)).ok());
  NYMIX_CHECK(fs.WriteFile("/etc/os-release",
                           Blob::FromString("NAME=" + name + "\nVERSION=14.04\n"))
                  .ok());
  // Default rc.local and network config; configuration layers mask these
  // per-role (§3.4: "network configuration files, the local startup script").
  NYMIX_CHECK(fs.WriteFile("/etc/rc.local", Blob::FromString("#!/bin/sh\nexit 0\n")).ok());
  NYMIX_CHECK(fs.WriteFile("/etc/network/interfaces",
                           Blob::FromString("auto lo\niface lo inet loopback\n"))
                  .ok());
  NYMIX_CHECK(
      fs.WriteFile("/etc/xdg/autostart/session.desktop", Blob::FromString("Exec=none\n")).ok());

  // Application binaries as sized synthetic blobs; each VM role runs a
  // subset of these from the shared base image.
  NYMIX_CHECK(
      fs.WriteFile("/usr/bin/chromium", Blob::Synthetic(90 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(fs.WriteFile("/usr/bin/tor", Blob::Synthetic(6 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(
      fs.WriteFile("/usr/bin/dissent", Blob::Synthetic(14 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(fs.WriteFile("/usr/bin/mat", Blob::Synthetic(3 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(
      fs.WriteFile("/usr/bin/nym-manager", Blob::Synthetic(2 * kMiB, prng.NextU64(), 0.6)).ok());
}

}  // namespace

ImageContents::ImageContents(const std::vector<Sha256Digest>& block_digests,
                             const Sha256Digest& identity)
    : identity_(identity), ranks_(block_digests.size()) {
  std::vector<std::pair<uint64_t, uint32_t>> by_id;
  by_id.reserve(block_digests.size());
  for (size_t block = 0; block < block_digests.size(); ++block) {
    by_id.emplace_back(DigestPrefix64(block_digests[block]), static_cast<uint32_t>(block));
  }
  std::sort(by_id.begin(), by_id.end());
  for (const auto& [id, block] : by_id) {
    if (ids_.empty() || ids_.back() != id) {
      ids_.push_back(id);
    }
    ranks_[block] = static_cast<uint32_t>(ids_.size() - 1);
  }
}

std::shared_ptr<BaseImage> BaseImage::CreateDistribution(std::string name, uint64_t seed,
                                                         uint64_t size_bytes) {
  NYMIX_CHECK(size_bytes % kDiskBlockSize == 0);
  auto image = std::shared_ptr<BaseImage>(new BaseImage());
  image->name_ = std::move(name);
  image->seed_ = seed;
  image->size_bytes_ = size_bytes;
  image->fs_ = std::make_shared<MemFs>();
  PopulateDistributionFs(*image->fs_, image->name_, seed);

  uint64_t blocks = image->block_count();
  image->block_digests_.reserve(blocks);
  for (uint64_t i = 0; i < blocks; ++i) {
    image->block_digests_.push_back(BlockDigestFor(seed, i));
  }
  image->merkle_ = MerkleTree::Build(image->block_digests_);
  image->contents_ =
      std::make_shared<const ImageContents>(image->block_digests_, image->merkle_.root());
  return image;
}

Result<std::shared_ptr<BaseImage>> BaseImage::CreateDistributionFromCheckpoint(
    std::string name, uint64_t seed, uint64_t size_bytes, std::vector<Sha256Digest> block_digests,
    MerkleTree merkle) {
  if (size_bytes % kDiskBlockSize != 0) {
    return InvalidArgumentError("image checkpoint: size not block-aligned");
  }
  if (block_digests.size() != size_bytes / kDiskBlockSize) {
    return InvalidArgumentError("image checkpoint: digest count does not match image size");
  }
  if (merkle.leaf_count() != block_digests.size()) {
    return InvalidArgumentError("image checkpoint: merkle leaf count does not match digests");
  }
  // Spot check first/last leaves against the tree so a checkpoint whose
  // digests and tree drifted apart fails loudly instead of verifying.
  if (!block_digests.empty()) {
    const auto& leaves = merkle.levels().front();
    if (leaves.front() != MerkleTree::HashLeaf(block_digests.front()) ||
        leaves.back() != MerkleTree::HashLeaf(block_digests.back())) {
      return InvalidArgumentError("image checkpoint: leaf hashes do not match block digests");
    }
  }
  auto image = std::shared_ptr<BaseImage>(new BaseImage());
  image->name_ = std::move(name);
  image->seed_ = seed;
  image->size_bytes_ = size_bytes;
  image->fs_ = std::make_shared<MemFs>();
  PopulateDistributionFs(*image->fs_, image->name_, seed);
  image->block_digests_ = std::move(block_digests);
  image->merkle_ = std::move(merkle);
  // The published root names the content only if the digests match the
  // tree; a checkpoint where they drift apart fails VerifyAllBlocks, and
  // NymManager boots nothing from it.
  image->contents_ =
      std::make_shared<const ImageContents>(image->block_digests_, image->merkle_.root());
  return image;
}

uint64_t BaseImage::BlockContentId(uint64_t block_index) const {
  NYMIX_CHECK(block_index < block_digests_.size());
  return DigestPrefix64(block_digests_[block_index]);
}

Sha256Digest BaseImage::ReadBlockDigest(uint64_t block_index) const {
  NYMIX_CHECK(block_index < block_digests_.size());
  return block_digests_[block_index];
}

bool BaseImage::VerifyBlock(uint64_t block_index) const {
  auto proof = merkle_.ProveLeaf(block_index);
  if (!proof.ok()) {
    return false;
  }
  return MerkleTree::VerifyProof(merkle_.root(), ReadBlockDigest(block_index), *proof);
}

bool BaseImage::VerifyAllBlocks() const {
  if (verified_mutation_ == static_cast<int64_t>(mutation_count_)) {
    return verified_ok_;
  }
  // One bottom-up rebuild covers every leaf: the recomputed root matches
  // the published root iff every stored block digest is untampered.
  verified_ok_ = MerkleTree::Build(block_digests_).root() == merkle_.root();
  verified_mutation_ = static_cast<int64_t>(mutation_count_);
  return verified_ok_;
}

void BaseImage::TamperBlock(uint64_t block_index, uint64_t new_seed) {
  NYMIX_CHECK(block_index < block_digests_.size());
  block_digests_[block_index] = BlockDigestFor(new_seed ^ 0xdeadbeefULL, block_index);
  ++mutation_count_;
  contents_ = std::make_shared<const ImageContents>(block_digests_,
                                                    MerkleTree::Build(block_digests_).root());
}

VmDisk::VmDisk(std::shared_ptr<const BaseImage> base, std::shared_ptr<const MemFs> config,
               uint64_t writable_capacity)
    : base_(std::move(base)),
      writable_capacity_(writable_capacity),
      writable_(std::make_shared<MemFs>()) {
  NYMIX_CHECK(base_ != nullptr);
  std::vector<std::shared_ptr<const MemFs>> lower;
  lower.push_back(base_->fs());
  if (config != nullptr) {
    lower.push_back(std::move(config));
  }
  union_fs_ = std::make_unique<UnionFs>(std::move(lower), writable_);
}

Status VmDisk::WriteFile(std::string_view path, Blob content) {
  uint64_t existing = 0;
  if (writable_->Exists(path) && !writable_->IsDirectory(path)) {
    auto size = writable_->FileSize(path);
    if (size.ok()) {
      existing = *size;
    }
  }
  uint64_t projected = writable_->TotalBytes() - existing + content.size();
  if (projected > writable_capacity_) {
    return ResourceExhaustedError("writable layer full: " + std::string(path));
  }
  return union_fs_->WriteFile(path, std::move(content));
}

}  // namespace nymix
