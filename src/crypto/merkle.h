// Merkle hash tree over fixed-size blocks (§3.4 future work, implemented):
// Nymix verifies every block loaded from the read-only host OS partition
// against a well-known root and shuts the nym down on any mismatch, so a
// tampered USB image cannot silently stain all future AnonVMs. Building
// the tree hashes each level as one batch (Sha256::HashEach); proving and
// verifying one leaf stay on the one-message path.
#ifndef SRC_CRYPTO_MERKLE_H_
#define SRC_CRYPTO_MERKLE_H_

#include <cstdint>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace nymix {

struct MerkleProof {
  uint64_t leaf_index = 0;
  uint64_t leaf_count = 0;
  // Sibling digests from leaf level up to (not including) the root.
  std::vector<Sha256Digest> siblings;
};

class MerkleTree {
 public:
  // Builds a tree over per-block digests. Leaves are domain-separated
  // (0x00-prefixed), interior nodes 0x01-prefixed, to block second-preimage
  // splicing. Odd nodes are paired with themselves.
  static MerkleTree Build(const std::vector<Sha256Digest>& block_digests);

  const Sha256Digest& root() const { return root_; }
  uint64_t leaf_count() const { return leaf_count_; }
  // levels()[0] = leaf hashes, levels().back() = {root}; empty when there
  // are no leaves.
  // nymlint:allow(dead-api): tests compare every tree level against a reference build
  const std::vector<std::vector<Sha256Digest>>& levels() const { return levels_; }

  Result<MerkleProof> ProveLeaf(uint64_t leaf_index) const;

  // Verifies that `block_digest` is leaf `proof.leaf_index` of a tree with
  // the given root.
  static bool VerifyProof(const Sha256Digest& root, const Sha256Digest& block_digest,
                          const MerkleProof& proof);

  // Domain-separated hashing used for both build and verify paths.
  static Sha256Digest HashLeaf(const Sha256Digest& block_digest);
  static Sha256Digest HashInterior(const Sha256Digest& left, const Sha256Digest& right);

 private:
  uint64_t leaf_count_ = 0;
  std::vector<std::vector<Sha256Digest>> levels_;
  Sha256Digest root_ = {};
};

}  // namespace nymix

#endif  // SRC_CRYPTO_MERKLE_H_
