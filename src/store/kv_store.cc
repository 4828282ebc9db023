#include "src/store/kv_store.h"

#include <utility>

#include "src/store/file_io.h"

namespace nymix {

namespace {

Bytes EncodePut(std::string_view key, ByteSpan value) {
  Bytes payload;
  AppendLengthPrefixed(payload, BytesFromString(key));
  AppendLengthPrefixed(payload, value);
  return payload;
}

Bytes EncodeDelete(std::string_view key) {
  Bytes payload;
  AppendLengthPrefixed(payload, BytesFromString(key));
  return payload;
}

}  // namespace

KvStore::KvStore() = default;

Status KvStore::Replay(const Record& record) {
  size_t offset = 0;
  switch (record.type) {
    case kRecordPut: {
      NYMIX_ASSIGN_OR_RETURN(Bytes key, ReadLengthPrefixed(record.payload, offset));
      NYMIX_ASSIGN_OR_RETURN(Bytes value, ReadLengthPrefixed(record.payload, offset));
      if (offset != record.payload.size()) {
        return DataLossError("kv store: trailing bytes in Put record");
      }
      entries_[StringFromBytes(key)] = std::move(value);
      return OkStatus();
    }
    case kRecordDelete: {
      NYMIX_ASSIGN_OR_RETURN(Bytes key, ReadLengthPrefixed(record.payload, offset));
      if (offset != record.payload.size()) {
        return DataLossError("kv store: trailing bytes in Delete record");
      }
      entries_.erase(StringFromBytes(key));
      return OkStatus();
    }
    default:
      return InvalidArgumentError("kv store: unknown record type " +
                                  std::to_string(record.type));
  }
}

Result<KvStore> KvStore::Open(ByteSpan data) {
  NYMIX_ASSIGN_OR_RETURN(std::vector<Record> records, ReadRecordLog(data));
  KvStore store;
  for (const Record& record : records) {
    NYMIX_RETURN_IF_ERROR(store.Replay(record));
  }
  store.log_ = RecordLogWriter(Bytes(data.begin(), data.end()));
  return store;
}

Result<KvRecoverResult> KvStore::Recover(ByteSpan data) {
  ScanResult scan = ScanRecordLog(data);
  if (scan.tail == LogTail::kBadHeader) {
    return InvalidArgumentError("kv store: not a record log (bad header)");
  }
  KvRecoverResult out;
  size_t replayed_bytes = sizeof(kRecordLogMagic) + 4;  // header
  for (const Record& record : scan.records) {
    // A record that passed its CRC but fails to decode marks the end of
    // the trustworthy prefix; everything from it onward is discarded.
    Status replayed = out.store.Replay(record);
    if (!replayed.ok()) {
      scan.valid_bytes = replayed_bytes;
      scan.tail = LogTail::kCorrupt;
      break;
    }
    replayed_bytes += 12 + record.payload.size();
  }
  out.valid_bytes = scan.valid_bytes;
  out.lost_bytes = data.size() - scan.valid_bytes;
  out.clean = scan.tail == LogTail::kClean;
  out.store.log_ =
      RecordLogWriter(Bytes(data.begin(), data.begin() + static_cast<ptrdiff_t>(scan.valid_bytes)));
  return out;
}

Result<KvStore> KvStore::Load(const std::string& path) {
  NYMIX_ASSIGN_OR_RETURN(Bytes data, ReadFileBytes(path));
  return Open(data);
}

Status KvStore::Save(const std::string& path) const { return WriteFileBytes(path, log()); }

void KvStore::Put(std::string_view key, ByteSpan value) {
  log_.Append(kRecordPut, EncodePut(key, value));
  entries_[std::string(key)] = Bytes(value.begin(), value.end());
}

void KvStore::Delete(std::string_view key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  log_.Append(kRecordDelete, EncodeDelete(key));
  entries_.erase(it);
}

Result<ByteSpan> KvStore::Get(std::string_view key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return NotFoundError("kv store: no such key: " + std::string(key));
  }
  return ByteSpan(it->second);
}

void KvStore::Compact() {
  RecordLogWriter fresh;
  for (const auto& [key, value] : entries_) {
    fresh.Append(kRecordPut, EncodePut(key, value));
  }
  log_ = std::move(fresh);
}

}  // namespace nymix
