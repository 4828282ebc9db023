// Tests for src/store: CRC-32C vectors, record-log framing and
// longest-valid-prefix recovery, the KV store (including torn-tail
// recovery and compaction determinism), the NBT trace/metrics codec with
// a seeded corruption fuzz, and the image-checkpoint warm-start path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/store/crc32.h"
#include "src/store/image_checkpoint.h"
#include "src/store/kv_store.h"
#include "src/store/nbt.h"
#include "src/store/record_log.h"
#include "src/unionfs/disk_image.h"
#include "src/util/prng.h"

namespace nymix {
namespace {

Bytes B(std::string_view text) { return BytesFromString(text); }

// --- CRC-32C ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 B.4 check value for "123456789".
  EXPECT_EQ(Crc32c(B("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(ByteSpan()), 0x00000000u);
  EXPECT_EQ(Crc32c(B("a")), 0xC1D04330u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  Bytes data = B("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= data.size(); split += 7) {
    uint32_t state = kCrc32cInit;
    state = Crc32cUpdate(state, ByteSpan(data.data(), split));
    state = Crc32cUpdate(state, ByteSpan(data.data() + split, data.size() - split));
    EXPECT_EQ(Crc32cFinish(state), Crc32c(data)) << "split at " << split;
  }
}

// --- record log ------------------------------------------------------------

TEST(RecordLogTest, FreshLogIsHeaderOnly) {
  RecordLogWriter writer;
  EXPECT_EQ(writer.bytes().size(), 12u);  // magic[8] + u32 version
  ScanResult scan = ScanRecordLog(writer.bytes());
  EXPECT_TRUE(scan.clean());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, writer.bytes().size());
}

TEST(RecordLogTest, RoundTrip) {
  RecordLogWriter writer;
  writer.Append(1, B("alpha"));
  writer.Append(2, ByteSpan());  // empty payloads are legal
  writer.Append(7, B("gamma gamma"));
  Result<std::vector<Record>> records = ReadRecordLog(writer.bytes());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].type, 1u);
  EXPECT_EQ(StringFromBytes((*records)[0].payload), "alpha");
  EXPECT_EQ((*records)[1].type, 2u);
  EXPECT_TRUE((*records)[1].payload.empty());
  EXPECT_EQ(StringFromBytes((*records)[2].payload), "gamma gamma");
}

TEST(RecordLogTest, ResumeAppendsToExistingLog) {
  RecordLogWriter first;
  first.Append(1, B("one"));
  RecordLogWriter resumed(first.TakeBytes());
  resumed.Append(2, B("two"));
  Result<std::vector<Record>> records = ReadRecordLog(resumed.bytes());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(StringFromBytes((*records)[1].payload), "two");
}

TEST(RecordLogTest, EncodingIsDeterministic) {
  RecordLogWriter a;
  RecordLogWriter b;
  for (RecordLogWriter* writer : {&a, &b}) {
    writer->Append(3, B("same bytes"));
    writer->Append(4, B("every time"));
  }
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(RecordLogTest, TornTailRecoversPrefix) {
  RecordLogWriter writer;
  writer.Append(1, B("kept"));
  writer.Append(2, B("torn away"));
  Bytes torn = writer.bytes();
  torn.resize(torn.size() - 3);  // rip into the final record

  ScanResult scan = ScanRecordLog(torn);
  EXPECT_EQ(scan.tail, LogTail::kTruncated);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(StringFromBytes(scan.records[0].payload), "kept");

  // The valid prefix is a clean log in its own right — resume and go on.
  Bytes prefix(torn.begin(), torn.begin() + static_cast<long>(scan.valid_bytes));
  EXPECT_TRUE(ScanRecordLog(prefix).clean());
  RecordLogWriter resumed(std::move(prefix));
  resumed.Append(3, B("after crash"));
  EXPECT_TRUE(ScanRecordLog(resumed.bytes()).clean());
}

TEST(RecordLogTest, CorruptPayloadDetected) {
  RecordLogWriter writer;
  writer.Append(1, B("kept"));
  writer.Append(2, B("flipped"));
  Bytes data = writer.bytes();
  data[data.size() - 6] ^= 0x40;  // inside the last record's payload

  ScanResult scan = ScanRecordLog(data);
  EXPECT_EQ(scan.tail, LogTail::kCorrupt);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(StringFromBytes(scan.records[0].payload), "kept");
  EXPECT_FALSE(ReadRecordLog(data).ok());
}

TEST(RecordLogTest, CorruptMiddleRecordLosesSuffix) {
  RecordLogWriter writer;
  writer.Append(1, B("first"));
  writer.Append(2, B("damaged"));
  writer.Append(3, B("unreachable"));
  Bytes data = writer.bytes();
  // Offset of record 2's payload: header 12 + record 1 (12 + 5 + 4) + 12.
  data[12 + 21 + 12] ^= 0x01;

  ScanResult scan = ScanRecordLog(data);
  EXPECT_EQ(scan.tail, LogTail::kCorrupt);
  ASSERT_EQ(scan.records.size(), 1u);  // everything after the damage is gone
  EXPECT_EQ(StringFromBytes(scan.records[0].payload), "first");
}

TEST(RecordLogTest, BadHeaderScansNothing) {
  Bytes garbage = B("not a nymix log at all");
  ScanResult scan = ScanRecordLog(garbage);
  EXPECT_EQ(scan.tail, LogTail::kBadHeader);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_FALSE(ReadRecordLog(garbage).ok());
}

TEST(RecordLogTest, InsaneLengthFieldIsCorruption) {
  RecordLogWriter writer;
  Bytes data = writer.TakeBytes();
  AppendU32(data, kMaxRecordPayload + 1);  // length field beyond the cap
  AppendU32(data, 1);                      // type
  AppendU32(data, 0);                      // "crc" — never reached
  ScanResult scan = ScanRecordLog(data);
  EXPECT_EQ(scan.tail, LogTail::kCorrupt);
  EXPECT_EQ(scan.valid_bytes, 12u);
}

// --- KV store --------------------------------------------------------------

TEST(KvStoreTest, PutGetDelete) {
  KvStore store;
  store.PutString("nym/alice", "anon state");
  store.PutString("nym/bob", "other state");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains("nym/alice"));
  ASSERT_TRUE(store.GetString("nym/alice").ok());
  EXPECT_EQ(*store.GetString("nym/alice"), "anon state");

  store.PutString("nym/alice", "updated");  // overwrite wins
  EXPECT_EQ(*store.GetString("nym/alice"), "updated");
  EXPECT_EQ(store.size(), 2u);

  store.Delete("nym/bob");
  EXPECT_FALSE(store.Contains("nym/bob"));
  EXPECT_FALSE(store.Get("nym/bob").ok());
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, OpenRoundTrip) {
  KvStore store;
  store.PutString("a", "1");
  store.PutString("b", "2");
  store.Delete("a");
  Result<KvStore> reopened = KvStore::Open(store.log());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), 1u);
  EXPECT_EQ(*reopened->GetString("b"), "2");
  EXPECT_FALSE(reopened->Contains("a"));
  // Replaying a log reproduces the byte-identical log.
  EXPECT_EQ(reopened->log(), store.log());
}

TEST(KvStoreTest, LogImageIsDeterministic) {
  KvStore a;
  KvStore b;
  for (KvStore* store : {&a, &b}) {
    store->PutString("x", "same");
    store->Delete("x");
    store->PutString("y", "ops");
  }
  EXPECT_EQ(a.log(), b.log());
}

TEST(KvStoreTest, CompactDropsHistoryKeepsContent) {
  KvStore store;
  for (int i = 0; i < 10; ++i) {
    store.PutString("hot", "version " + std::to_string(i));
  }
  store.PutString("doomed", "bytes");
  store.Delete("doomed");
  size_t before = store.log().size();
  store.Compact();
  EXPECT_LT(store.log().size(), before);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(*store.GetString("hot"), "version 9");

  // Compaction normalizes: stores with equal content but different
  // histories compact to the same bytes.
  KvStore direct;
  direct.PutString("hot", "version 9");
  direct.Compact();
  EXPECT_EQ(store.log(), direct.log());
}

TEST(KvStoreTest, RecoverTornTail) {
  KvStore store;
  store.PutString("survives", "yes");
  store.PutString("torn", "this record will be ripped");
  Bytes data = store.log();
  data.resize(data.size() - 5);

  EXPECT_FALSE(KvStore::Open(data).ok());  // strict refuses damage
  Result<KvRecoverResult> recovered = KvStore::Recover(data);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->clean);
  EXPECT_GT(recovered->lost_bytes, 0u);
  EXPECT_TRUE(recovered->store.Contains("survives"));
  EXPECT_FALSE(recovered->store.Contains("torn"));
}

TEST(KvStoreTest, RecoverRejectsForeignBytes) {
  EXPECT_FALSE(KvStore::Recover(B("some other file format")).ok());
}

TEST(KvStoreTest, SaveLoadFile) {
  std::string path = testing::TempDir() + "/kv_store_test.nymlog";
  KvStore store;
  store.PutString("k", "v");
  ASSERT_TRUE(store.Save(path).ok());
  Result<KvStore> loaded = KvStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded->GetString("k"), "v");
}

// --- NBT codec -------------------------------------------------------------

// A recorder exercising every event phase, with exact-float values.
TraceRecorder MakeSampleTrace() {
  TraceRecorder trace;
  trace.set_enabled(true);
  trace.set_record_wall_time(false);
  trace.AddComplete("core", "boot", "nym0", Millis(1), Millis(40));
  trace.AddComplete("core", "profiled", "nym0", Millis(2), Millis(3), /*wall_us=*/17.25);
  trace.AddInstant("net", "flap", "uplink", Millis(5));
  trace.AddCounter("loop", "queue_depth", Millis(6), 3.5);
  trace.AddAsyncBegin("net", "flow", 42, Millis(7));
  trace.AddAsyncEnd("net", "flow", 42, Millis(9));
  return trace;
}

MetricsRegistry MakeSampleMetrics() {
  MetricsRegistry metrics;
  metrics.set_enabled(true);
  metrics.GetCounter("core.boots")->Increment(3);
  metrics.GetGauge("mem.resident_mib")->Set(123.456789);
  Histogram* hist = metrics.GetHistogram("net.rtt_us");
  for (double v : {0.0, 1.0, 2.5, 40000.0, 123456.0, -3.0}) {
    hist->Record(v);
  }
  return metrics;
}

TEST(NbtTest, TraceRoundTripIsByteIdentical) {
  TraceRecorder trace = MakeSampleTrace();
  Bytes encoded = EncodeNbt(&trace, nullptr);
  Result<NbtDocument> decoded = DecodeNbt(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->has_trace);
  EXPECT_FALSE(decoded->has_metrics);
  EXPECT_EQ(decoded->trace.ToChromeJson(), trace.ToChromeJson());
  EXPECT_EQ(NbtToJson(*decoded), trace.ToChromeJson());
}

TEST(NbtTest, MetricsRoundTripIsByteIdentical) {
  MetricsRegistry metrics = MakeSampleMetrics();
  Bytes encoded = EncodeNbt(nullptr, &metrics);
  Result<NbtDocument> decoded = DecodeNbt(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->has_trace);
  ASSERT_TRUE(decoded->has_metrics);
  std::ostringstream expected;
  metrics.WriteJson(expected);
  EXPECT_EQ(NbtToJson(*decoded), expected.str());
}

TEST(NbtTest, CombinedDocumentMatchesJsonFormatOutput) {
  TraceRecorder trace = MakeSampleTrace();
  MetricsRegistry metrics = MakeSampleMetrics();
  Bytes encoded = EncodeNbt(&trace, &metrics);
  Result<NbtDocument> decoded = DecodeNbt(encoded);
  ASSERT_TRUE(decoded.ok());
  std::ostringstream expected;
  expected << trace.ToChromeJson();
  metrics.WriteJson(expected);
  EXPECT_EQ(NbtToJson(*decoded), expected.str());
}

TEST(NbtTest, RestoredRecorderKeepsRecording) {
  TraceRecorder trace = MakeSampleTrace();
  Bytes encoded = EncodeNbt(&trace, nullptr);
  Result<NbtDocument> decoded = DecodeNbt(encoded);
  ASSERT_TRUE(decoded.ok());
  // New events on a restored recorder land after the decoded ones and on
  // fresh tracks — the derived tid/timeline counters were recomputed.
  decoded->trace.AddInstant("core", "post_restore", "new_track", Millis(50));
  trace.AddInstant("core", "post_restore", "new_track", Millis(50));
  EXPECT_EQ(decoded->trace.ToChromeJson(), trace.ToChromeJson());
}

TEST(NbtTest, StrictDecodeRejectsDamage) {
  TraceRecorder trace = MakeSampleTrace();
  Bytes encoded = EncodeNbt(&trace, nullptr);
  Bytes torn = encoded;
  torn.resize(torn.size() - 2);
  EXPECT_FALSE(DecodeNbt(torn).ok());
  Bytes flipped = encoded;
  flipped[flipped.size() - 1] ^= 0xFF;
  EXPECT_FALSE(DecodeNbt(flipped).ok());
}

// Seeded fuzz: random event streams, then a torn or corrupted tail. The
// recovery contract under test: RecoverNbt never fails past a valid
// header, recovers a strict prefix of the original event stream, and the
// recovered prefix re-exports byte-identically to a recorder holding just
// those events.
TEST(NbtTest, FuzzTornAndCorruptTailRecovery) {
  Prng prng(0xA11CE5EED);
  const char* kCategories[] = {"core", "net", "hv"};
  for (int round = 0; round < 40; ++round) {
    TraceRecorder trace;
    trace.set_enabled(true);
    trace.set_record_wall_time(false);
    int events = static_cast<int>(prng.NextBelow(30));
    for (int e = 0; e < events; ++e) {
      const char* category = kCategories[prng.NextBelow(3)];
      std::string name = "ev" + std::to_string(prng.NextBelow(5));
      std::string track = "t" + std::to_string(prng.NextBelow(4));
      SimTime ts = static_cast<SimTime>(prng.NextBelow(1'000'000));
      switch (prng.NextBelow(5)) {
        case 0:
          trace.AddComplete(category, name, track, ts,
                            static_cast<SimDuration>(prng.NextBelow(10'000)));
          break;
        case 1:
          trace.AddComplete(category, name, track, ts,
                            static_cast<SimDuration>(prng.NextBelow(10'000)),
                            prng.NextDouble() * 100.0);
          break;
        case 2:
          trace.AddInstant(category, name, track, ts);
          break;
        case 3:
          trace.AddCounter(category, name, ts, prng.NextDouble() * 1e6 - 1e3);
          break;
        default:
          trace.AddAsyncBegin(category, name, prng.NextU64(), ts);
          break;
      }
    }
    Bytes encoded = EncodeNbt(&trace, nullptr);

    // Clean decode first: the fuzz stream itself must round-trip.
    Result<NbtDocument> clean = DecodeNbt(encoded);
    ASSERT_TRUE(clean.ok()) << "round " << round << ": " << clean.status().ToString();
    ASSERT_EQ(clean->trace.ToChromeJson(), trace.ToChromeJson()) << "round " << round;

    // Now damage the tail: torn write or a flipped byte past the header.
    Bytes damaged = encoded;
    bool torn = prng.NextBelow(2) == 0;
    if (torn && damaged.size() > 13) {
      damaged.resize(12 + prng.NextBelow(damaged.size() - 12));
    } else if (damaged.size() > 12) {
      damaged[12 + prng.NextBelow(damaged.size() - 12)] ^= 1u << prng.NextBelow(8);
    }
    Result<NbtRecovered> recovered = RecoverNbt(damaged);
    ASSERT_TRUE(recovered.ok()) << "round " << round << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered->lost_bytes, damaged.size() - recovered->valid_bytes);
    ASSERT_LE(recovered->events_recovered, trace.events().size()) << "round " << round;
    if (recovered->doc.has_trace) {
      // The recovered events are exactly the first events_recovered of the
      // original stream.
      const std::vector<TraceRecorder::Event>& got = recovered->doc.trace.events();
      ASSERT_EQ(got.size(), recovered->events_recovered);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].phase, trace.events()[i].phase) << "round " << round;
        EXPECT_EQ(got[i].name, trace.events()[i].name) << "round " << round;
        EXPECT_EQ(got[i].ts, trace.events()[i].ts) << "round " << round;
      }
    }
  }
}

// --- image checkpoint ------------------------------------------------------

TEST(ImageCheckpointTest, KeyFormat) {
  EXPECT_EQ(ImageCheckpointKey("nymix", 42, 64 * kMiB), "image/nymix/42/67108864");
}

TEST(ImageCheckpointTest, EncodeDecodeRoundTrip) {
  auto image = BaseImage::CreateDistribution("tiny", 7, kMiB);
  Bytes payload = EncodeImageCheckpoint(*image);
  Result<std::shared_ptr<const BaseImage>> restored = DecodeImageCheckpoint(payload);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->name(), "tiny");
  EXPECT_EQ((*restored)->seed(), 7u);
  EXPECT_EQ((*restored)->size_bytes(), kMiB);
  EXPECT_EQ((*restored)->block_digests(), image->block_digests());
  EXPECT_EQ((*restored)->merkle_root(), image->merkle_root());
}

TEST(ImageCheckpointTest, DecodeRejectsDamage) {
  auto image = BaseImage::CreateDistribution("tiny", 7, kMiB);
  Bytes payload = EncodeImageCheckpoint(*image);
  Bytes truncated(payload.begin(), payload.begin() + 10);
  EXPECT_FALSE(DecodeImageCheckpoint(truncated).ok());
  // Flip a byte of the first block digest (offset: lp name "tiny" = 8,
  // seed + size = 16, digest count = 4): the leaf spot-check catches the
  // digest table and Merkle tree drifting apart.
  Bytes flipped = payload;
  flipped[28] ^= 0x01;
  EXPECT_FALSE(DecodeImageCheckpoint(flipped).ok());
}

TEST(ImageCheckpointTest, AcquireColdThenWarm) {
  KvStore store;
  bool cold_built = false;
  Result<std::shared_ptr<const BaseImage>> first =
      AcquireDistributionImage(store, "img", 9, kMiB, &cold_built);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(cold_built);
  EXPECT_TRUE(store.Contains(ImageCheckpointKey("img", 9, kMiB)));

  Result<std::shared_ptr<const BaseImage>> second =
      AcquireDistributionImage(store, "img", 9, kMiB, &cold_built);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(cold_built);  // warm path
  // Bit-equal artifacts: the restored image is indistinguishable.
  EXPECT_EQ((*second)->merkle_root(), (*first)->merkle_root());
  EXPECT_EQ((*second)->block_digests(), (*first)->block_digests());
  // Distinct objects: the cold build is interned, a restore is not.
  EXPECT_NE(second->get(), first->get());
}

TEST(ImageCheckpointTest, MalformedCheckpointFallsBackToColdBuild) {
  KvStore store;
  store.PutString(ImageCheckpointKey("img", 9, kMiB), "not a checkpoint");
  bool cold_built = false;
  Result<std::shared_ptr<const BaseImage>> image =
      AcquireDistributionImage(store, "img", 9, kMiB, &cold_built);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_TRUE(cold_built);
  // The bad entry was repaired in place; the next acquire is warm.
  Result<std::shared_ptr<const BaseImage>> again =
      AcquireDistributionImage(store, "img", 9, kMiB, &cold_built);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(cold_built);
}

}  // namespace
}  // namespace nymix
