#include "src/unionfs/serialize.h"

#include "src/compress/nymzip.h"

namespace nymix {

namespace {

constexpr uint8_t kMagic[4] = {'N', 'F', 'S', '1'};
constexpr uint8_t kKindReal = 0;
constexpr uint8_t kKindSynthetic = 1;

}  // namespace

Bytes SerializeMemFs(const MemFs& fs) {
  Bytes out(kMagic, kMagic + 4);
  AppendU32(out, static_cast<uint32_t>(fs.FileCount()));
  fs.ForEachFile([&out](const std::string& path, const Blob& blob) {
    AppendLengthPrefixed(out, BytesFromString(path));
    if (blob.is_synthetic()) {
      out.push_back(kKindSynthetic);
      AppendU64(out, blob.size());
      AppendU64(out, blob.seed());
      AppendU32(out, static_cast<uint32_t>(blob.entropy() * 1e6));
    } else {
      out.push_back(kKindReal);
      AppendLengthPrefixed(out, blob.bytes());
    }
  });
  return out;
}

Result<std::unique_ptr<MemFs>> DeserializeMemFs(ByteSpan data) {
  if (data.size() < 8 || !std::equal(kMagic, kMagic + 4, data.begin())) {
    return DataLossError("not a serialized filesystem");
  }
  size_t offset = 4;
  NYMIX_ASSIGN_OR_RETURN(uint32_t count, ReadU32(data, offset));
  auto fs = std::make_unique<MemFs>();
  for (uint32_t i = 0; i < count; ++i) {
    NYMIX_ASSIGN_OR_RETURN(Bytes path_bytes, ReadLengthPrefixed(data, offset));
    std::string path = StringFromBytes(path_bytes);
    if (offset >= data.size()) {
      return DataLossError("truncated filesystem entry");
    }
    uint8_t kind = data[offset++];
    if (kind == kKindReal) {
      NYMIX_ASSIGN_OR_RETURN(Bytes content, ReadLengthPrefixed(data, offset));
      NYMIX_RETURN_IF_ERROR(fs->WriteFile(path, Blob::FromBytes(std::move(content))));
    } else if (kind == kKindSynthetic) {
      NYMIX_ASSIGN_OR_RETURN(uint64_t size, ReadU64(data, offset));
      NYMIX_ASSIGN_OR_RETURN(uint64_t seed, ReadU64(data, offset));
      NYMIX_ASSIGN_OR_RETURN(uint32_t entropy_micro, ReadU32(data, offset));
      if (entropy_micro > 1'000'000) {
        return DataLossError("synthetic entry entropy above 1.0");
      }
      NYMIX_RETURN_IF_ERROR(fs->WriteFile(
          path, Blob::Synthetic(size, seed, static_cast<double>(entropy_micro) / 1e6)));
    } else {
      return DataLossError("unknown filesystem entry kind");
    }
  }
  return fs;
}

uint64_t EstimateCompressedPayload(const MemFs& fs) {
  uint64_t total = 0;
  fs.ForEachFile([&total](const std::string& path, const Blob& blob) {
    total += 64;  // per-entry header (path, framing)
    total += path.size();
    if (blob.is_synthetic()) {
      total += blob.CompressedSizeEstimate();
    } else {
      total += NymzipCompress(blob.bytes()).size();
    }
  });
  return total;
}

}  // namespace nymix
