#include "src/unionfs/disk_image.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/util/intern_table.h"

namespace nymix {

namespace {

// Stable per-block digest material: 16 bytes of (seed, index), both
// little-endian.
constexpr size_t kBlockRecord = 16;

void StoreBlockRecord(uint64_t seed, uint64_t block_index, uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(seed >> (8 * i));
    out[8 + i] = static_cast<uint8_t>(block_index >> (8 * i));
  }
}

std::shared_ptr<const MemFs> DistributionFs(const std::string& name, uint64_t seed) {
  auto fs = std::make_shared<MemFs>();
  Prng prng(seed);
  NYMIX_CHECK(fs->Mkdir("/etc", true).ok());
  NYMIX_CHECK(fs->Mkdir("/usr/bin", true).ok());
  NYMIX_CHECK(fs->Mkdir("/usr/share/" + name, true).ok());
  NYMIX_CHECK(fs->Mkdir("/var/lib", true).ok());
  NYMIX_CHECK(fs->Mkdir("/home/user", true).ok());

  NYMIX_CHECK(fs->WriteFile("/etc/hostname", Blob::FromString(name)).ok());
  NYMIX_CHECK(fs->WriteFile("/etc/os-release",
                           Blob::FromString("NAME=" + name + "\nVERSION=14.04\n"))
                  .ok());
  // Default rc.local and network config; configuration layers mask these
  // per-role (§3.4: "network configuration files, the local startup script").
  NYMIX_CHECK(fs->WriteFile("/etc/rc.local", Blob::FromString("#!/bin/sh\nexit 0\n")).ok());
  NYMIX_CHECK(fs->WriteFile("/etc/network/interfaces",
                           Blob::FromString("auto lo\niface lo inet loopback\n"))
                  .ok());
  NYMIX_CHECK(
      fs->WriteFile("/etc/xdg/autostart/session.desktop", Blob::FromString("Exec=none\n")).ok());

  // Application binaries as sized synthetic blobs; each VM role runs a
  // subset of these from the shared base image.
  NYMIX_CHECK(
      fs->WriteFile("/usr/bin/chromium", Blob::Synthetic(90 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(fs->WriteFile("/usr/bin/tor", Blob::Synthetic(6 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(
      fs->WriteFile("/usr/bin/dissent", Blob::Synthetic(14 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(fs->WriteFile("/usr/bin/mat", Blob::Synthetic(3 * kMiB, prng.NextU64(), 0.6)).ok());
  NYMIX_CHECK(
      fs->WriteFile("/usr/bin/nym-manager", Blob::Synthetic(2 * kMiB, prng.NextU64(), 0.6)).ok());
  return fs;
}

}  // namespace

ImageContents::ImageContents(const std::vector<Sha256Digest>& block_digests,
                             const Sha256Digest& identity)
    : identity_(identity) {
  std::vector<std::pair<uint64_t, uint32_t>> by_id;
  by_id.reserve(block_digests.size());
  for (size_t block = 0; block < block_digests.size(); ++block) {
    by_id.emplace_back(DigestPrefix64(block_digests[block]), static_cast<uint32_t>(block));
  }
  std::sort(by_id.begin(), by_id.end());
  blocks_.reserve(by_id.size());
  for (const auto& [id, block] : by_id) {
    if (ids_.empty() || ids_.back() != id) {
      ids_.push_back(id);
    } else if (irregular_.empty() || irregular_.back() != ids_.size() - 1) {
      irregular_.push_back(static_cast<uint32_t>(ids_.size() - 1));
      extra_through_.push_back(static_cast<uint32_t>(blocks_.size() - ids_.size() + 1));
    } else {
      ++extra_through_.back();
    }
    blocks_.push_back(block);
  }
  index_ = WaveletMatrix(blocks_, blocks_.size());
}

uint64_t ImageContents::Position(uint64_t rank) const {
  NYMIX_CHECK(rank <= ids_.size());
  size_t before = static_cast<size_t>(
      std::lower_bound(irregular_.begin(), irregular_.end(), rank) - irregular_.begin());
  return rank + (before == 0 ? 0 : extra_through_[before - 1]);
}

uint64_t ImageContents::CountDominated(uint64_t rank, uint64_t block) const {
  return index_.CountLess(Position(rank), block);
}

std::span<const uint32_t> ImageContents::BlocksAt(uint64_t rank) const {
  NYMIX_CHECK(rank < ids_.size());
  uint64_t begin = Position(rank);
  return std::span<const uint32_t>(blocks_).subspan(begin, Position(rank + 1) - begin);
}

BaseImage::BaseImage(std::string name, uint64_t seed, uint64_t size_bytes,
                     std::shared_ptr<const MemFs> fs, std::vector<Sha256Digest> block_digests,
                     std::optional<MerkleTree> published)
    : name_(std::move(name)),
      seed_(seed),
      size_bytes_(size_bytes),
      fs_(std::move(fs)),
      block_digests_(std::move(block_digests)),
      merkle_(published.has_value() ? std::move(*published) : MerkleTree::Build(block_digests_)),
      // The content is named by the root of the digests actually held: the
      // published root itself when the tree was built from them, otherwise
      // one bottom-up rebuild, which covers every leaf at once.
      contents_(std::make_shared<const ImageContents>(
          block_digests_,
          published.has_value() ? MerkleTree::Build(block_digests_).root() : merkle_.root())),
      verified_(contents_->identity() == merkle_.root()) {}

std::shared_ptr<const BaseImage> BaseImage::CreateDistribution(std::string name, uint64_t seed,
                                                               uint64_t size_bytes) {
  NYMIX_CHECK(size_bytes % kDiskBlockSize == 0);
  // Never destroyed: no exit-time destructor may race a thread still
  // reading one of its images.
  static auto* interned =
      new InternTable<std::tuple<std::string, uint64_t, uint64_t>, BaseImage>();
  return interned->FindOrBuild({name, seed, size_bytes}, [&] {
    std::vector<Sha256Digest> digests(size_bytes / kDiskBlockSize);
    Bytes records(digests.size() * kBlockRecord);
    for (uint64_t i = 0; i < digests.size(); ++i) {
      StoreBlockRecord(seed, i, records.data() + i * kBlockRecord);
    }
    Sha256::HashEach(records, kBlockRecord, digests);
    return std::shared_ptr<const BaseImage>(new BaseImage(
        name, seed, size_bytes, DistributionFs(name, seed), std::move(digests), std::nullopt));
  });
}

std::shared_ptr<const BaseImage> BaseImage::TamperedCopy(uint64_t block_index,
                                                         uint64_t new_seed) const {
  NYMIX_CHECK(block_index < block_digests_.size());
  std::vector<Sha256Digest> digests = block_digests_;
  uint8_t record[kBlockRecord];
  StoreBlockRecord(new_seed ^ 0xdeadbeefULL, block_index, record);
  digests[block_index] = Sha256::Hash(ByteSpan(record, kBlockRecord));
  return std::shared_ptr<const BaseImage>(
      new BaseImage(name_, seed_, size_bytes_, fs_, std::move(digests), merkle_));
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
  // One bottom-up rebuild covers every leaf: the recomputed root matches
  // the published root iff every stored block digest is untampered.
  return MerkleTree::Build(block_digests_).root() == merkle_.root();
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
