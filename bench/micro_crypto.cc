// Micro-benchmarks for the crypto substrate: the archive pipeline's
// throughput justifies NymManager's kArchiveProcessingBps model constant
// (src/core/nym_manager.cc), PBKDF2 cost shows the password-guessing
// barrier, and batched SHA-256 plus Merkle builds the base-image cost.
#include <benchmark/benchmark.h>

#include "src/crypto/aead.h"
#include "src/crypto/hmac.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"
#include "src/util/prng.h"

namespace nymix {
namespace {

Bytes TestData(size_t size) {
  Prng prng(42);
  return prng.NextBytes(size);
}

void BM_Sha256(benchmark::State& state) {
  Bytes data = TestData(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_Sha256Each(benchmark::State& state) {
  // 16384 records, the release image's block count, of the three lengths
  // the image build hashes: 16-byte block records, 33-byte Merkle leaves
  // and 65-byte interior nodes. items/s reads as messages/s.
  constexpr size_t kCount = 16384;
  size_t length = static_cast<size_t>(state.range(0));
  Bytes messages = TestData(kCount * length);
  std::vector<Sha256Digest> out(kCount);
  for (auto _ : state) {
    Sha256::HashEach(messages, length, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kCount);
}
BENCHMARK(BM_Sha256Each)->Arg(16)->Arg(33)->Arg(65);

void BM_ChaCha20(benchmark::State& state) {
  Bytes data = TestData(static_cast<size_t>(state.range(0)));
  ChaChaKey key = {};
  ChaChaNonce nonce = {};
  for (auto _ : state) {
    Bytes copy = data;
    ChaCha20XorInPlace(key, nonce, 1, copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_AeadSealOpen(benchmark::State& state) {
  Bytes data = TestData(static_cast<size_t>(state.range(0)));
  ChaChaKey key = {};
  ChaChaNonce nonce = {};
  for (auto _ : state) {
    Bytes sealed = AeadSeal(key, nonce, data, {});
    auto opened = AeadOpen(key, nonce, sealed, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0) * 2);
}
BENCHMARK(BM_AeadSealOpen)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_Pbkdf2(benchmark::State& state) {
  Bytes password = BytesFromString("correct horse battery staple");
  Bytes salt = BytesFromString("my-nym");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Pbkdf2Sha256(password, salt, static_cast<uint32_t>(state.range(0)), 32));
  }
  // One item is one PBKDF2 iteration (one HMAC), so items/s reads as the
  // per-iteration cost whatever the iteration count.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Pbkdf2)->Arg(256)->Arg(2048);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Sha256Digest> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash("block" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Build(leaves));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(1024)->Arg(16384);

void BM_MerkleVerify(benchmark::State& state) {
  std::vector<Sha256Digest> leaves;
  for (int i = 0; i < 16384; ++i) {
    leaves.push_back(Sha256::Hash("block" + std::to_string(i)));
  }
  MerkleTree tree = MerkleTree::Build(leaves);
  auto proof = tree.ProveLeaf(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::VerifyProof(tree.root(), leaves[12345], *proof));
  }
}
BENCHMARK(BM_MerkleVerify);

}  // namespace
}  // namespace nymix

BENCHMARK_MAIN();
