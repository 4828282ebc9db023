#include <gtest/gtest.h>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/hmac.h"
#include "src/crypto/merkle.h"
#include "src/crypto/poly1305.h"
#include "src/crypto/sha256.h"
#include "src/util/prng.h"

namespace nymix {
namespace {

std::string DigestHex(const Sha256Digest& digest) {
  return HexEncode(ByteSpan(digest.data(), digest.size()));
}

Bytes MustHex(std::string_view hex) {
  auto decoded = HexDecode(hex);
  NYMIX_CHECK(decoded.ok());
  return *decoded;
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(DigestHex(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Prng prng(1);
  Bytes data = prng.NextBytes(10000);
  for (size_t split : {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{4096}}) {
    Sha256 hasher;
    size_t offset = 0;
    while (offset < data.size()) {
      size_t take = std::min(split, data.size() - offset);
      hasher.Update(ByteSpan(data.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(hasher.Finish(), Sha256::Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, EmptyUpdateAfterPartialBlockIsANoOp) {
  // An empty Bytes carries a null data(), which must not reach memcpy after
  // a partial block.
  Bytes data = BytesFromString("0123456789");
  Sha256 hasher;
  hasher.Update(data);
  hasher.Update(Bytes());
  EXPECT_EQ(hasher.Finish(), Sha256::Hash(data));
}

TEST(Sha256Test, HashEachMatchesHash) {
  // Counts 0-17 leave every tail size past a multiple of eight lanes; the
  // lengths put records in one to four blocks, with the padding's 0x80 and
  // bit length on either side of each block boundary.
  std::vector<std::pair<const char*, Sha256LaneKernel>> kernels = {
      {"baseline", Sha256BaselineKernel()}};
  if (Sha256Avx2Kernel() != nullptr) {
    kernels.emplace_back("avx2", Sha256Avx2Kernel());
  }
  Prng prng(25);
  for (size_t length : {0, 1, 16, 33, 55, 56, 63, 64, 65, 119, 120, 200}) {
    for (size_t count = 0; count <= 17; ++count) {
      Bytes messages = prng.NextBytes(count * length);
      std::vector<Sha256Digest> expected;
      for (size_t i = 0; i < count; ++i) {
        expected.push_back(Sha256::Hash(ByteSpan(messages).subspan(i * length, length)));
      }
      for (const auto& [name, kernel] : kernels) {
        std::vector<Sha256Digest> out(count);
        kernel(messages, length, out);
        EXPECT_EQ(out, expected) << name << " length=" << length << " count=" << count;
      }
      std::vector<Sha256Digest> out(count);
      Sha256::HashEach(messages, length, out);
      EXPECT_EQ(out, expected) << "HashEach length=" << length << " count=" << count;
    }
  }
}

TEST(Sha256Test, DigestPrefixIsBigEndianPrefix) {
  Sha256Digest digest = Sha256::Hash("abc");
  EXPECT_EQ(DigestPrefix64(digest), 0xba7816bf8f01cfeaULL);
}

// ---------------------------------------------------------------- HMAC / KDFs

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto tag = HmacSha256(key, BytesFromString("Hi There"));
  EXPECT_EQ(DigestHex(tag), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  auto tag = HmacSha256(BytesFromString("Jefe"), BytesFromString("what do ya want for nothing?"));
  EXPECT_EQ(DigestHex(tag), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes long_key(131, 0xaa);  // RFC 4231 case 6 key length
  auto tag = HmacSha256(long_key,
                        BytesFromString("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestHex(tag), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, KeysAtTheBlockSizeEdge) {
  // 64 bytes is used as is; 65 is hashed first.
  EXPECT_EQ(DigestHex(HmacSha256(Bytes(64, 0x0b), BytesFromString("Hi There"))),
            "21cd586aeca0579d99a1c938127c92525a371f807bc5ba6eb78bc825bd4f2be3");
  EXPECT_EQ(DigestHex(HmacSha256(Bytes(65, 0x0b), BytesFromString("Hi There"))),
            "727b82fba264393c5d67fd6d6ad783e9019a1fa6a857fccb70f5852f04be5d5d");
}

TEST(HmacTest, EmptyKeyAndMessage) {
  // An empty key is zero-padded to the block size like any short key.
  auto tag = HmacSha256(Bytes(), Bytes());
  EXPECT_EQ(DigestHex(tag), "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(Pbkdf2Test, Rfc7914Vector) {
  Bytes dk = Pbkdf2Sha256(BytesFromString("passwd"), BytesFromString("salt"), 1, 64);
  EXPECT_EQ(HexEncode(dk),
            "55ac046e56e3089fec1691c22544b605"
            "f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef31"
            "7c71b845b1e30bd509112041d3a19783");
}

// Expected values from Python's hashlib.pbkdf2_hmac("sha256", ...).
TEST(Pbkdf2Test, KnownAnswersPastTheFirstIteration) {
  Bytes password = BytesFromString("password");
  Bytes salt = BytesFromString("salt");
  EXPECT_EQ(HexEncode(Pbkdf2Sha256(password, salt, 2, 32)),
            "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43");
  EXPECT_EQ(HexEncode(Pbkdf2Sha256(password, salt, 4096, 32)),
            "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a");
  EXPECT_EQ(HexEncode(Pbkdf2Sha256(BytesFromString("passwordPASSWORDpassword"),
                                   BytesFromString("saltSALTsaltSALTsaltSALTsaltSALTsalt"), 4096,
                                   40)),
            "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1c635518c7dac47e9");
  EXPECT_EQ(HexEncode(Pbkdf2Sha256(Bytes(), salt, 2048, 32)),
            "455173ea1c11cc1a74bbfb8c2002d363459fbaaea68fe01481c402ffc9428649");
  EXPECT_EQ(HexEncode(Pbkdf2Sha256(Bytes(65, 'k'), BytesFromString("nym-Gmail"), 2048, 64)),
            "4d782df95ced0a805b00fec6aac3b9ecfed0046754d076b754cb7c4059d17581"
            "ef1dd35f2c4a442d77f6af9f7af7f4ded8799fc15c04e6a97fc15e07a60ef17b");
}

// Reference HMAC straight from RFC 2104: H((K ^ opad) || H((K ^ ipad) || m)),
// rehashing the padded key on every call.
Sha256Digest TextbookHmac(const Bytes& key, const Bytes& message) {
  Bytes block_key = key.size() > 64 ? DigestToBytes(Sha256::Hash(key)) : key;
  block_key.resize(64, 0);
  Bytes inner;
  Bytes outer;
  for (uint8_t byte : block_key) {
    inner.push_back(byte ^ 0x36);
    outer.push_back(byte ^ 0x5c);
  }
  inner.insert(inner.end(), message.begin(), message.end());
  Bytes inner_digest = DigestToBytes(Sha256::Hash(inner));
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::Hash(outer);
}

// Reference PBKDF2 (RFC 8018 section 5.2) on TextbookHmac.
Bytes TextbookPbkdf2(const Bytes& password, const Bytes& salt, uint32_t iterations,
                     size_t length) {
  Bytes output;
  for (uint32_t block = 1; output.size() < length; ++block) {
    Bytes u = salt;
    for (int shift = 24; shift >= 0; shift -= 8) {
      u.push_back(static_cast<uint8_t>(block >> shift));
    }
    Bytes accum(kSha256DigestSize, 0);
    for (uint32_t iter = 0; iter < iterations; ++iter) {
      u = DigestToBytes(TextbookHmac(password, u));
      for (size_t i = 0; i < accum.size(); ++i) {
        accum[i] ^= u[i];
      }
    }
    output.insert(output.end(), accum.begin(), accum.end());
  }
  output.resize(length);
  return output;
}

TEST(Pbkdf2Test, MatchesTextbookReference) {
  // Every key length at the block-size edges against every salt length
  // 0-80; the cases cycle through iterations 1-33 and output lengths 1-97
  // (one to four blocks, partial last blocks included).
  Prng prng(23);
  size_t case_index = 0;
  for (size_t key_length : {0, 1, 63, 64, 65, 130}) {
    for (size_t salt_length = 0; salt_length <= 80; ++salt_length, ++case_index) {
      Bytes password = prng.NextBytes(key_length);
      Bytes salt = prng.NextBytes(salt_length);
      auto iterations = static_cast<uint32_t>(1 + case_index % 33);
      size_t length = 1 + (case_index * 7) % 97;
      ASSERT_EQ(HexEncode(Pbkdf2Sha256(password, salt, iterations, length)),
                HexEncode(TextbookPbkdf2(password, salt, iterations, length)))
          << "key=" << key_length << " salt=" << salt_length << " c=" << iterations
          << " dk=" << length;
    }
  }
}

TEST(Pbkdf2Test, IterationsChangeOutput) {
  Bytes a = Pbkdf2Sha256(BytesFromString("pw"), BytesFromString("s"), 1, 32);
  Bytes b = Pbkdf2Sha256(BytesFromString("pw"), BytesFromString("s"), 2, 32);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- ChaCha20

ChaChaKey TestKey() {
  ChaChaKey key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  return key;
}

TEST(ChaCha20Test, Rfc8439BlockFunction) {
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  auto block = ChaCha20Block(TestKey(), nonce, 1);
  EXPECT_EQ(HexEncode(ByteSpan(block.data(), block.size())),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439Encryption) {
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes ciphertext = ChaCha20Xor(TestKey(), nonce, 1, BytesFromString(plaintext));
  EXPECT_EQ(HexEncode(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d");
}

TEST(ChaCha20Test, XorIsInvolution) {
  Prng prng(2);
  Bytes data = prng.NextBytes(1000);
  ChaChaNonce nonce = {};
  Bytes once = ChaCha20Xor(TestKey(), nonce, 7, data);
  Bytes twice = ChaCha20Xor(TestKey(), nonce, 7, once);
  EXPECT_EQ(twice, data);
  EXPECT_NE(once, data);
}

// ---------------------------------------------------------------- Poly1305

TEST(Poly1305Test, Rfc8439Vector) {
  Bytes key_bytes = MustHex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Poly1305Key key;
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  auto tag = Poly1305Mac(key, BytesFromString("Cryptographic Forum Research Group"));
  EXPECT_EQ(HexEncode(ByteSpan(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, DifferentMessagesDifferentTags) {
  Poly1305Key key = {};
  key[0] = 1;  // r must be nonzero or every tag equals s
  auto tag_a = Poly1305Mac(key, BytesFromString("message a"));
  auto tag_b = Poly1305Mac(key, BytesFromString("message b"));
  EXPECT_NE(HexEncode(ByteSpan(tag_a.data(), tag_a.size())),
            HexEncode(ByteSpan(tag_b.data(), tag_b.size())));
}

// ---------------------------------------------------------------- AEAD

TEST(AeadTest, Rfc8439Vector) {
  ChaChaKey key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x80 + i);
  }
  ChaChaNonce nonce = {0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47};
  Bytes aad = MustHex("50515253c0c1c2c3c4c5c6c7");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes sealed = AeadSeal(key, nonce, BytesFromString(plaintext), aad);
  ASSERT_EQ(sealed.size(), plaintext.size() + kPoly1305TagSize);
  EXPECT_EQ(HexEncode(ByteSpan(sealed.data() + sealed.size() - 16, 16)),
            "1ae10b594f09e26a7e902ecbd0600691");
  EXPECT_EQ(HexEncode(ByteSpan(sealed.data(), 16)), "d31a8d34648e60db7b86afbc53ef7ec2");

  auto opened = AeadOpen(key, nonce, sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(StringFromBytes(*opened), plaintext);
}

TEST(AeadTest, DetectsCiphertextTampering) {
  ChaChaKey key = TestKey();
  ChaChaNonce nonce = {};
  Bytes sealed = AeadSeal(key, nonce, BytesFromString("secret nym state"), {});
  sealed[3] ^= 0x01;
  EXPECT_EQ(AeadOpen(key, nonce, sealed, {}).status().code(), StatusCode::kUnauthenticated);
}

TEST(AeadTest, DetectsAadMismatch) {
  ChaChaKey key = TestKey();
  ChaChaNonce nonce = {};
  Bytes sealed = AeadSeal(key, nonce, BytesFromString("data"), BytesFromString("v1"));
  EXPECT_FALSE(AeadOpen(key, nonce, sealed, BytesFromString("v2")).ok());
  EXPECT_TRUE(AeadOpen(key, nonce, sealed, BytesFromString("v1")).ok());
}

TEST(AeadTest, DetectsWrongKeyAndTruncation) {
  ChaChaKey key = TestKey();
  ChaChaKey other = TestKey();
  other[0] ^= 0xff;
  ChaChaNonce nonce = {};
  Bytes sealed = AeadSeal(key, nonce, BytesFromString("data"), {});
  EXPECT_FALSE(AeadOpen(other, nonce, sealed, {}).ok());
  EXPECT_FALSE(AeadOpen(key, nonce, ByteSpan(sealed.data(), 8), {}).ok());
}

TEST(AeadTest, EmptyPlaintextRoundTrips) {
  ChaChaKey key = TestKey();
  ChaChaNonce nonce = {};
  Bytes sealed = AeadSeal(key, nonce, {}, {});
  auto opened = AeadOpen(key, nonce, sealed, {});
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

// Property sweep: random payload sizes round-trip.
class AeadRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(AeadRoundTrip, SealOpen) {
  Prng prng(GetParam() + 100);
  Bytes plaintext = prng.NextBytes(GetParam());
  Bytes aad = prng.NextBytes(GetParam() % 32);
  ChaChaKey key = TestKey();
  ChaChaNonce nonce = {};
  nonce[0] = static_cast<uint8_t>(GetParam());
  Bytes sealed = AeadSeal(key, nonce, plaintext, aad);
  auto opened = AeadOpen(key, nonce, sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 255, 1024, 65537));

// ---------------------------------------------------------------- Merkle

std::vector<Sha256Digest> MakeLeaves(size_t count) {
  std::vector<Sha256Digest> leaves;
  for (size_t i = 0; i < count; ++i) {
    leaves.push_back(Sha256::Hash("block-" + std::to_string(i)));
  }
  return leaves;
}

class MerkleTreeSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleTreeSizes, AllProofsVerify) {
  auto leaves = MakeLeaves(GetParam());
  MerkleTree tree = MerkleTree::Build(leaves);
  EXPECT_EQ(tree.leaf_count(), GetParam());
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto proof = tree.ProveLeaf(i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(MerkleTree::VerifyProof(tree.root(), leaves[i], *proof)) << "leaf " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleTreeSizes, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 33));

TEST(MerkleTest, WrongLeafFailsVerification) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree = MerkleTree::Build(leaves);
  auto proof = tree.ProveLeaf(3);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(MerkleTree::VerifyProof(tree.root(), leaves[4], *proof));
  EXPECT_FALSE(MerkleTree::VerifyProof(tree.root(), Sha256::Hash("evil"), *proof));
}

TEST(MerkleTest, ProofForWrongIndexFails) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree = MerkleTree::Build(leaves);
  auto proof = tree.ProveLeaf(3);
  ASSERT_TRUE(proof.ok());
  proof->leaf_index = 2;  // splice attack: same siblings, different position
  EXPECT_FALSE(MerkleTree::VerifyProof(tree.root(), leaves[3], *proof));
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  auto leaves = MakeLeaves(16);
  MerkleTree original = MerkleTree::Build(leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i] = Sha256::Hash("tampered-" + std::to_string(i));
    EXPECT_NE(MerkleTree::Build(mutated).root(), original.root());
  }
}

TEST(MerkleTest, ProveLeafOutOfRangeFails) {
  MerkleTree tree = MerkleTree::Build(MakeLeaves(4));
  EXPECT_FALSE(tree.ProveLeaf(4).ok());
}

TEST(MerkleTest, LevelsMatchScalarDefinition) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 40; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(16384);
  for (size_t n : sizes) {
    auto leaves = MakeLeaves(n);
    MerkleTree tree = MerkleTree::Build(leaves);
    if (n == 0) {
      EXPECT_TRUE(tree.levels().empty());
      EXPECT_EQ(tree.root(), Sha256::Hash(ByteSpan()));
      continue;
    }
    std::vector<Sha256Digest> level;
    for (const Sha256Digest& leaf : leaves) {
      level.push_back(MerkleTree::HashLeaf(leaf));
    }
    size_t depth = 0;
    for (;; ++depth) {
      ASSERT_LT(depth, tree.levels().size()) << "n=" << n;
      EXPECT_EQ(tree.levels()[depth], level) << "n=" << n << " depth=" << depth;
      if (level.size() == 1) {
        break;
      }
      std::vector<Sha256Digest> above;
      for (size_t i = 0; i < level.size(); i += 2) {
        // An odd last node pairs with itself.
        above.push_back(
            MerkleTree::HashInterior(level[i], i + 1 < level.size() ? level[i + 1] : level[i]));
      }
      level = std::move(above);
    }
    EXPECT_EQ(tree.levels().size(), depth + 1) << "n=" << n;
    EXPECT_EQ(tree.root(), level[0]) << "n=" << n;
  }
}

}  // namespace
}  // namespace nymix
