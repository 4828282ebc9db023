// Single-writer, log-structured key/value store over the record log.
//
// The design follows the pattern production deterministic nodes use for
// their persistence layer: every mutation appends a Put or Delete record;
// the in-memory index (a sorted std::map, so iteration order is stable) is
// rebuilt by replaying the log on open. There is exactly one writer per
// store instance and no background threads — all ordering comes from the
// caller, so a store's byte image is a pure function of the operation
// sequence applied to it.
//
// Recovery contract: Open() is strict (any damage is an error); Recover()
// replays the longest valid prefix and reports how much of the tail was
// lost, which is what crash-recovery paths want.
#ifndef SRC_STORE_KV_STORE_H_
#define SRC_STORE_KV_STORE_H_

#include <map>
#include <string>
#include <string_view>

#include "src/store/record_log.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace nymix {

struct KvRecoverResult;

class KvStore {
 public:
  // Record types within the log.
  static constexpr uint32_t kRecordPut = 1;
  static constexpr uint32_t kRecordDelete = 2;

  // Empty store (fresh log with only the header).
  KvStore();

  // Strict open: fails unless `data` is a clean log of Put/Delete records.
  static Result<KvStore> Open(ByteSpan data);

  // Tolerant open: replays the longest valid prefix, never fails on
  // truncation/corruption (only on a missing/foreign header).
  static Result<KvRecoverResult> Recover(ByteSpan data);

  // Convenience wrappers around file_io.
  // nymlint:allow(dead-api): durability path: reads a store back from its log file
  static Result<KvStore> Load(const std::string& path);
  // nymlint:allow(dead-api): durability path: writes the store's log to a file
  Status Save(const std::string& path) const;

  void Put(std::string_view key, ByteSpan value);
  void Delete(std::string_view key);

  Result<ByteSpan> Get(std::string_view key) const;

  size_t size() const { return entries_.size(); }
  const std::map<std::string, Bytes, std::less<>>& entries() const { return entries_; }

  // Serialized log image, including any superseded records.
  const Bytes& log() const { return log_.bytes(); }

  // Rewrites the log with exactly one Put per live key (sorted order),
  // dropping overwritten and deleted history. Byte-deterministic.
  // nymlint:allow(dead-api): part of the record-log format contract: one Put per live key, byte-deterministic
  void Compact();

 private:
  Status Replay(const Record& record);

  RecordLogWriter log_;
  std::map<std::string, Bytes, std::less<>> entries_;
};

struct KvRecoverResult {
  KvStore store;
  size_t valid_bytes = 0;  // intact prefix replayed into `store`
  size_t lost_bytes = 0;   // bytes past the damage, discarded
  bool clean = false;      // true when nothing was lost
};

}  // namespace nymix

#endif  // SRC_STORE_KV_STORE_H_
