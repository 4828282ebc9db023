#include "src/crypto/merkle.h"

#include <cstring>

namespace nymix {

Sha256Digest MerkleTree::HashLeaf(const Sha256Digest& block_digest) {
  Sha256 hasher;
  uint8_t prefix = 0x00;
  hasher.Update(ByteSpan(&prefix, 1));
  hasher.Update(ByteSpan(block_digest.data(), block_digest.size()));
  return hasher.Finish();
}

Sha256Digest MerkleTree::HashInterior(const Sha256Digest& left, const Sha256Digest& right) {
  Sha256 hasher;
  uint8_t prefix = 0x01;
  hasher.Update(ByteSpan(&prefix, 1));
  hasher.Update(ByteSpan(left.data(), left.size()));
  hasher.Update(ByteSpan(right.data(), right.size()));
  return hasher.Finish();
}

MerkleTree MerkleTree::Build(const std::vector<Sha256Digest>& block_digests) {
  MerkleTree tree;
  tree.leaf_count_ = block_digests.size();
  if (block_digests.empty()) {
    tree.root_ = Sha256::Hash(ByteSpan());
    return tree;
  }

  // Each level is one HashEach over its records laid end to end, the same
  // bytes HashLeaf and HashInterior hash one at a time.
  constexpr size_t kLeafRecord = 1 + kSha256DigestSize;
  constexpr size_t kInteriorRecord = 1 + 2 * kSha256DigestSize;
  Bytes records(block_digests.size() * kLeafRecord);
  for (size_t i = 0; i < block_digests.size(); ++i) {
    uint8_t* record = records.data() + i * kLeafRecord;
    record[0] = 0x00;
    std::memcpy(record + 1, block_digests[i].data(), kSha256DigestSize);
  }
  std::vector<Sha256Digest> level(block_digests.size());
  Sha256::HashEach(records, kLeafRecord, level);
  tree.levels_.push_back(std::move(level));

  while (tree.levels_.back().size() > 1) {
    const auto& below = tree.levels_.back();
    std::vector<Sha256Digest> above((below.size() + 1) / 2);
    records.resize(above.size() * kInteriorRecord);
    for (size_t i = 0; i < above.size(); ++i) {
      const Sha256Digest& left = below[2 * i];
      const Sha256Digest& right = (2 * i + 1 < below.size()) ? below[2 * i + 1] : left;
      uint8_t* record = records.data() + i * kInteriorRecord;
      record[0] = 0x01;
      std::memcpy(record + 1, left.data(), kSha256DigestSize);
      std::memcpy(record + 1 + kSha256DigestSize, right.data(), kSha256DigestSize);
    }
    Sha256::HashEach(records, kInteriorRecord, above);
    tree.levels_.push_back(std::move(above));
  }
  tree.root_ = tree.levels_.back()[0];
  return tree;
}

Result<MerkleProof> MerkleTree::ProveLeaf(uint64_t leaf_index) const {
  if (leaf_index >= leaf_count_) {
    return InvalidArgumentError("leaf index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = leaf_index;
  proof.leaf_count = leaf_count_;
  uint64_t index = leaf_index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    uint64_t sibling = (index % 2 == 0) ? index + 1 : index - 1;
    if (sibling >= nodes.size()) {
      sibling = index;  // odd node pairs with itself
    }
    proof.siblings.push_back(nodes[sibling]);
    index /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProof(const Sha256Digest& root, const Sha256Digest& block_digest,
                             const MerkleProof& proof) {
  if (proof.leaf_index >= proof.leaf_count) {
    return false;
  }
  Sha256Digest node = HashLeaf(block_digest);
  uint64_t index = proof.leaf_index;
  uint64_t level_count = proof.leaf_count;
  for (const Sha256Digest& sibling : proof.siblings) {
    if (index % 2 == 0) {
      node = HashInterior(node, sibling);
    } else {
      node = HashInterior(sibling, node);
    }
    index /= 2;
    level_count = (level_count + 1) / 2;
  }
  if (level_count != 1) {
    return false;
  }
  return node == root;
}

}  // namespace nymix
