#include "src/storage/nym_archive.h"

#include "src/compress/nymzip.h"
#include "src/crypto/aead.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/unionfs/serialize.h"

namespace nymix {

namespace {

ChaChaKey DeriveKey(std::string_view nym_name, std::string_view password) {
  Bytes salt = BytesFromString(nym_name);
  Bytes material = Pbkdf2Sha256(BytesFromString(password), salt, NymArchiver::kKdfIterations,
                                kChaCha20KeySize);
  ChaChaKey key;
  std::copy(material.begin(), material.end(), key.begin());
  return key;
}

ChaChaNonce NonceForSequence(uint32_t sequence) {
  ChaChaNonce nonce = {};
  nonce[0] = 'N';
  nonce[1] = 'Y';
  nonce[2] = 'M';
  for (int i = 0; i < 4; ++i) {
    nonce[8 + i] = static_cast<uint8_t>(sequence >> (8 * i));
  }
  return nonce;
}

Bytes ArchiveAad(std::string_view nym_name, uint32_t sequence) {
  Bytes aad = BytesFromString(nym_name);
  AppendU32(aad, sequence);
  return aad;
}

// Logical bytes of synthetic content not materialized into the stream.
uint64_t SyntheticEstimate(const MemFs& fs) {
  uint64_t total = 0;
  fs.ForEachFile([&total](const std::string& path, const Blob& blob) {
    (void)path;
    if (blob.is_synthetic()) {
      total += blob.CompressedSizeEstimate();
    }
  });
  return total;
}

}  // namespace

Result<NymArchive> NymArchiver::Seal(const MemFs& anonvm_writable, const MemFs& commvm_writable,
                                     std::string_view nym_name, std::string_view password,
                                     uint32_t sequence) {
  Bytes plaintext = {'N', 'A', 'R', 'C'};
  AppendLengthPrefixed(plaintext, SerializeMemFs(anonvm_writable));
  AppendLengthPrefixed(plaintext, SerializeMemFs(commvm_writable));

  Bytes compressed = NymzipCompress(plaintext);
  ChaChaKey key = DeriveKey(nym_name, password);
  Bytes aad = ArchiveAad(nym_name, sequence);
  NymArchive archive;
  archive.sequence = sequence;
  archive.sealed = AeadSeal(key, NonceForSequence(sequence), compressed, aad);
  archive.logical_size =
      archive.sealed.size() + SyntheticEstimate(anonvm_writable) + SyntheticEstimate(commvm_writable);
  return archive;
}

Result<NymArchiveContents> NymArchiver::Open(ByteSpan sealed, std::string_view nym_name,
                                             std::string_view password, uint32_t sequence) {
  ChaChaKey key = DeriveKey(nym_name, password);
  Bytes aad = ArchiveAad(nym_name, sequence);
  NYMIX_ASSIGN_OR_RETURN(Bytes compressed, AeadOpen(key, NonceForSequence(sequence), sealed, aad));
  NYMIX_ASSIGN_OR_RETURN(Bytes plaintext, NymzipDecompress(compressed));
  if (plaintext.size() < 4 || plaintext[0] != 'N' || plaintext[1] != 'A' || plaintext[2] != 'R' ||
      plaintext[3] != 'C') {
    return DataLossError("not a nym archive");
  }
  size_t offset = 4;
  NYMIX_ASSIGN_OR_RETURN(Bytes anon_stream, ReadLengthPrefixed(plaintext, offset));
  NYMIX_ASSIGN_OR_RETURN(Bytes comm_stream, ReadLengthPrefixed(plaintext, offset));
  NymArchiveContents contents;
  NYMIX_ASSIGN_OR_RETURN(contents.anonvm_writable, DeserializeMemFs(anon_stream));
  NYMIX_ASSIGN_OR_RETURN(contents.commvm_writable, DeserializeMemFs(comm_stream));
  return contents;
}

double NymArchiver::AnonVmFraction(const MemFs& anonvm_writable, const MemFs& commvm_writable) {
  double anon = static_cast<double>(EstimateCompressedPayload(anonvm_writable));
  double comm = static_cast<double>(EstimateCompressedPayload(commvm_writable));
  if (anon + comm == 0) {
    return 0.0;
  }
  return anon / (anon + comm);
}

uint64_t DeriveGuardSeed(std::string_view storage_location, std::string_view password) {
  Sha256 hasher;
  hasher.Update(ByteSpan(reinterpret_cast<const uint8_t*>("guard-seed"), 10));
  Bytes location = BytesFromString(storage_location);
  hasher.Update(location);
  Bytes pass = BytesFromString(password);
  hasher.Update(pass);
  return DigestPrefix64(hasher.Finish());
}

std::string BlindObjectName(std::string_view nym_name, std::string_view password) {
  Sha256 hasher;
  hasher.Update(ByteSpan(reinterpret_cast<const uint8_t*>("object-name"), 11));
  Bytes name = BytesFromString(nym_name);
  hasher.Update(name);
  Bytes pass = BytesFromString(password);
  hasher.Update(pass);
  uint64_t digest = DigestPrefix64(hasher.Finish());
  static const char kHex[] = "0123456789abcdef";
  std::string out = "obj-";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(digest >> shift) & 0xF];
  }
  return out;
}

}  // namespace nymix
