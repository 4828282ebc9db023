#include <gtest/gtest.h>

#include "src/util/blob.h"
#include "src/util/bytes.h"
#include "src/util/event_loop.h"
#include "src/util/flags.h"
#include "src/util/prng.h"
#include "src/util/status.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("missing nym");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing nym");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(UnauthenticatedError("x").code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(InvalidArgumentError("bad"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int value) {
  if (value % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return value / 2;
}

Result<int> Quarter(int value) {
  NYMIX_ASSIGN_OR_RETURN(int half, Half(value));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto err = Quarter(6);  // 6/2 = 3, odd
  EXPECT_FALSE(err.ok());
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST(BytesTest, HexDecodeRejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());
  EXPECT_FALSE(HexDecode("zz").ok());
  EXPECT_TRUE(HexDecode("ABCD").ok());
}

TEST(BytesTest, LittleEndianRoundTrip) {
  Bytes buf;
  AppendU16(buf, 0x1234);
  AppendU32(buf, 0xdeadbeef);
  AppendU64(buf, 0x0102030405060708ULL);
  size_t offset = 0;
  EXPECT_EQ(*ReadU16(buf, offset), 0x1234);
  EXPECT_EQ(*ReadU32(buf, offset), 0xdeadbeef);
  EXPECT_EQ(*ReadU64(buf, offset), 0x0102030405060708ULL);
  EXPECT_EQ(offset, buf.size());
}

TEST(BytesTest, ReadersFailOnShortBuffers) {
  Bytes buf = {0x01};
  size_t offset = 0;
  EXPECT_FALSE(ReadU16(buf, offset).ok());
  EXPECT_FALSE(ReadU32(buf, offset).ok());
  EXPECT_FALSE(ReadU64(buf, offset).ok());
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  Bytes buf;
  AppendLengthPrefixed(buf, BytesFromString("hello"));
  AppendLengthPrefixed(buf, Bytes{});
  size_t offset = 0;
  EXPECT_EQ(StringFromBytes(*ReadLengthPrefixed(buf, offset)), "hello");
  EXPECT_TRUE(ReadLengthPrefixed(buf, offset)->empty());
}

TEST(BytesTest, LengthPrefixedDetectsTruncation) {
  Bytes buf;
  AppendLengthPrefixed(buf, BytesFromString("hello"));
  buf.resize(buf.size() - 2);
  size_t offset = 0;
  EXPECT_FALSE(ReadLengthPrefixed(buf, offset).ok());
}

TEST(BytesTest, ConstantTimeEquals) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  EXPECT_FALSE(ConstantTimeEquals(a, c));
  EXPECT_FALSE(ConstantTimeEquals(a, ByteSpan(a.data(), 2)));
}

TEST(BytesTest, FormatSize) {
  EXPECT_EQ(FormatSize(512), "512 B");
  EXPECT_EQ(FormatSize(2 * kMiB), "2.00 MiB");
  EXPECT_EQ(FormatSize(3 * kGiB), "3.00 GiB");
}

// ---------------------------------------------------------------- Prng

TEST(PrngTest, DeterministicForSeed) {
  Prng a(7);
  Prng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(PrngTest, NextBelowIsInRange) {
  Prng prng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(prng.NextBelow(17), 17u);
  }
}

TEST(PrngTest, NextInRangeInclusive) {
  Prng prng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = prng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng prng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = prng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, ForkIsIndependentAndLabelSensitive) {
  Prng base1(9);
  Prng base2(9);
  Prng fork_a = base1.Fork("a");
  Prng fork_b = base2.Fork("b");
  EXPECT_NE(fork_a.NextU64(), fork_b.NextU64());
  Prng base3(9);
  Prng fork_a2 = base3.Fork("a");
  Prng base4(9);
  Prng fork_a3 = base4.Fork("a");
  EXPECT_EQ(fork_a2.NextU64(), fork_a3.NextU64());
}

TEST(PrngTest, NextBytesLength) {
  Prng prng(10);
  EXPECT_EQ(prng.NextBytes(0).size(), 0u);
  EXPECT_EQ(prng.NextBytes(13).size(), 13u);
}

TEST(HashTest, Fnv1aMatchesKnownValue) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(std::string_view("")), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64(std::string_view("a")), Fnv1a64(std::string_view("b")));
}

// ---------------------------------------------------------------- EventLoop

TEST(EventLoopTest, RunsInTimestampOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAfter(Millis(30), [&] { order.push_back(3); });
  loop.ScheduleAfter(Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAfter(Millis(20), [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Millis(30));
}

TEST(EventLoopTest, EqualTimesRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAfter(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.ScheduleAfter(Millis(10), [&] {
    times.push_back(loop.now());
    loop.ScheduleAfter(Millis(10), [&] { times.push_back(loop.now()); });
  });
  loop.RunUntilIdle();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Millis(10));
  EXPECT_EQ(times[1], Millis(20));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  uint64_t id = loop.ScheduleAfter(Millis(10), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // second cancel is a no-op
  loop.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAfter(Millis(10), [&] { ++count; });
  loop.ScheduleAfter(Millis(50), [&] { ++count; });
  loop.RunUntil(Millis(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), Millis(20));
  loop.RunUntilIdle();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, RunUntilConditionStopsEarly) {
  EventLoop loop;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    loop.ScheduleAfter(Millis(i), [&] { ++count; });
  }
  EXPECT_TRUE(loop.RunUntilCondition([&] { return count >= 3; }));
  EXPECT_EQ(count, 3);
}

TEST(EventLoopTest, RunUntilConditionReturnsFalseWhenExhausted) {
  EventLoop loop;
  loop.ScheduleAfter(Millis(1), [] {});
  EXPECT_FALSE(loop.RunUntilCondition([] { return false; }));
}

TEST(EventLoopTest, CancelAfterRunReturnsFalse) {
  EventLoop loop;
  uint64_t id = loop.ScheduleAfter(Millis(1), [] {});
  loop.RunUntilIdle();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, CancelTwiceReturnsFalseAndStaysSafe) {
  EventLoop loop;
  uint64_t id = loop.ScheduleAfter(Millis(1), [] {});
  uint64_t other = loop.ScheduleAfter(Millis(2), [] {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));
  EXPECT_EQ(loop.RunUntilIdle(), 1u);  // `other` still runs exactly once
  EXPECT_FALSE(loop.Cancel(other));
}

TEST(EventLoopTest, PendingEventsExcludesCancelledTombstones) {
  EventLoop loop;
  uint64_t a = loop.ScheduleAfter(Millis(1), [] {});
  loop.ScheduleAfter(Millis(2), [] {});
  uint64_t c = loop.ScheduleAfter(Millis(3), [] {});
  EXPECT_EQ(loop.pending_events(), 3u);
  // Cancelled entries linger in the heap until lazily popped, but must not
  // count as pending.
  loop.Cancel(a);
  loop.Cancel(c);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, RunUntilIgnoresCancelledFrontEvent) {
  EventLoop loop;
  int ran = 0;
  uint64_t front = loop.ScheduleAfter(Millis(5), [&] { ++ran; });
  loop.ScheduleAfter(Millis(50), [&] { ++ran; });
  loop.Cancel(front);
  // The cancelled tombstone at the top of the heap must not trick RunUntil
  // into executing the Millis(50) event before the deadline.
  EXPECT_EQ(loop.RunUntil(Millis(20)), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(loop.now(), Millis(20));
  loop.RunUntilIdle();
  EXPECT_EQ(ran, 1);
}

// ---------------------------------------------------------------- Blob

TEST(BlobTest, RealBlobRoundTrip) {
  Blob blob = Blob::FromString("hello world");
  EXPECT_FALSE(blob.is_synthetic());
  EXPECT_EQ(blob.size(), 11u);
  EXPECT_EQ(StringFromBytes(blob.Materialize()), "hello world");
}

TEST(BlobTest, SyntheticBlobDeterministic) {
  Blob a = Blob::Synthetic(1000, 42);
  Blob b = Blob::Synthetic(1000, 42);
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_EQ(a.Materialize(), b.Materialize());
  EXPECT_EQ(a.Materialize().size(), 1000u);
}

TEST(BlobTest, SyntheticBlobsDifferBySeedAndSize) {
  EXPECT_NE(Blob::Synthetic(1000, 1).ContentHash(), Blob::Synthetic(1000, 2).ContentHash());
  EXPECT_NE(Blob::Synthetic(1000, 1).ContentHash(), Blob::Synthetic(1001, 1).ContentHash());
}

TEST(BlobTest, CompressedEstimateScalesWithEntropy) {
  Blob compressible = Blob::Synthetic(1 * kMiB, 7, 0.1);
  Blob random = Blob::Synthetic(1 * kMiB, 7, 1.0);
  EXPECT_LT(compressible.CompressedSizeEstimate(), random.CompressedSizeEstimate());
  EXPECT_LE(random.CompressedSizeEstimate(), 1 * kMiB);
}

TEST(BlobTest, RealBlobEstimateTracksContent) {
  Bytes zeros(100000, 0);
  Blob z = Blob::FromBytes(zeros);
  Prng prng(11);
  Blob r = Blob::FromBytes(prng.NextBytes(100000));
  EXPECT_LT(z.CompressedSizeEstimate(), r.CompressedSizeEstimate());
}

TEST(SimClockTest, Conversions) {
  EXPECT_EQ(Seconds(2), Micros(2000000));
  EXPECT_EQ(Millis(1500), SecondsF(1.5));
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
}

// ---------------------------------------------------------------- FlagSet

// Parses `args` (argv[0] is supplied) with `flags`.
void ParseArgs(FlagSet& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  flags.Parse(static_cast<int>(argv.size()), argv.data());
}

// One flag of every type, defaults as a bench would set them.
struct AllFlags {
  bool verbose = false;
  int shards = 8;
  uint64_t seed = 13;
  std::vector<int> ns = {8, 64};
  std::string out = "out.json";
  std::string mode = "both";
  std::vector<std::string> disabled;
  std::vector<std::string> paths;
  FlagSet flags{"prog"};

  explicit AllFlags(size_t max_paths = 1) {
    flags.Bool("verbose", &verbose, "chatty");
    flags.Int("shards", &shards, 1, "shard count");
    flags.Uint64("seed", &seed, "seed");
    flags.IntList("n", &ns, 1, "sizes");
    flags.String("out", &out, "<path>", "artifact");
    flags.Choice("mode", &mode, {"both", "full"}, "mode");
    flags.Repeated("disable", &disabled, "<name>", "skip");
    flags.Positionals(&paths, 0, max_paths, "[input]");
  }
};

TEST(FlagSetTest, DefaultsSurviveAnEmptyArgv) {
  AllFlags all;
  ParseArgs(all.flags, {});
  EXPECT_FALSE(all.verbose);
  EXPECT_EQ(all.shards, 8);
  EXPECT_EQ(all.seed, 13u);
  EXPECT_EQ(all.ns, (std::vector<int>{8, 64}));
  EXPECT_EQ(all.out, "out.json");
  EXPECT_EQ(all.mode, "both");
  EXPECT_TRUE(all.disabled.empty());
  EXPECT_TRUE(all.paths.empty());
}

TEST(FlagSetTest, ParsesEveryType) {
  AllFlags all;
  ParseArgs(all.flags, {"--verbose", "--shards=1", "--seed=18446744073709551615", "--n=1,2,3",
                        "--out=x.json", "--mode=full", "--disable=a", "in.nbt", "--disable=b"});
  EXPECT_TRUE(all.verbose);
  EXPECT_EQ(all.shards, 1);  // the minimum itself is in range
  EXPECT_EQ(all.seed, UINT64_MAX);
  EXPECT_EQ(all.ns, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(all.out, "x.json");
  EXPECT_EQ(all.mode, "full");
  EXPECT_EQ(all.disabled, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(all.paths, (std::vector<std::string>{"in.nbt"}));
}

TEST(FlagSetTest, LastRepetitionWins) {
  AllFlags all;
  ParseArgs(all.flags, {"--shards=2", "--n=4", "--shards=3", "--out=a", "--n=5,6", "--out=b"});
  EXPECT_EQ(all.shards, 3);
  EXPECT_EQ(all.ns, (std::vector<int>{5, 6}));
  EXPECT_EQ(all.out, "b");
}

TEST(FlagSetTest, SynopsisListsFlagsInRegistrationOrder) {
  AllFlags all;
  EXPECT_EQ(all.flags.Synopsis(),
            "usage: prog [--verbose] [--shards=<n>] [--seed=<n>] [--n=<n,...>] "
            "[--out=<path>] [--mode=both|full] [--disable=<name>] [input]");
}

TEST(FlagSetTest, StrictNumberParsers) {
  EXPECT_EQ(ParseIntList("8,64,256", 1), (std::vector<int>{8, 64, 256}));
  EXPECT_EQ(ParseIntList("1", 1), (std::vector<int>{1}));
  EXPECT_FALSE(ParseIntList("", 1).has_value());
  EXPECT_FALSE(ParseIntList("8,", 1).has_value());
  EXPECT_FALSE(ParseIntList("0", 1).has_value());
  EXPECT_FALSE(ParseIntList("99999999999", 1).has_value());
  EXPECT_EQ(ParseUint64("7"), 7u);
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("2junk").has_value());
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());
}

// Every usage error exits 2 with a diagnostic, then the synopsis.
void ExpectUsageError(std::vector<std::string> args, const std::string& diagnostic) {
  AllFlags all;
  EXPECT_EXIT(ParseArgs(all.flags, args), ::testing::ExitedWithCode(2),
              "prog: " + diagnostic + ".*\nusage: prog \\[--verbose\\]")
      << ::testing::PrintToString(args);
}

TEST(FlagSetDeathTest, UnknownFlag) { ExpectUsageError({"--bogus=1"}, "unknown flag"); }

TEST(FlagSetDeathTest, BoolGivenAValue) {
  ExpectUsageError({"--verbose=1"}, "--verbose takes no value");
}

TEST(FlagSetDeathTest, ValuedFlagWithoutEquals) {
  ExpectUsageError({"--out", "x.json"}, "--out needs a value");
}

TEST(FlagSetDeathTest, EmptyStringValue) { ExpectUsageError({"--out="}, "malformed --out"); }

TEST(FlagSetDeathTest, IntBelowItsMinimum) {
  ExpectUsageError({"--shards=0"}, "malformed --shards \"0\"");
}

TEST(FlagSetDeathTest, IntListWithAnEmptyElement) {
  ExpectUsageError({"--n=8,,64"}, "malformed --n \"8,,64\"");
}

TEST(FlagSetDeathTest, UnknownChoice) { ExpectUsageError({"--mode=fast"}, "unknown --mode"); }

TEST(FlagSetDeathTest, TooManyPositionals) {
  ExpectUsageError({"a", "b"}, "unexpected argument \"b\"");
}

TEST(FlagSetDeathTest, MissingPositional) {
  std::vector<std::string> paths;
  FlagSet flags("prog");
  flags.Positionals(&paths, 1, 2, "<input> [output]");
  EXPECT_EXIT(ParseArgs(flags, {}), ::testing::ExitedWithCode(2),
              "prog: missing <input> \\[output\\]");
}

TEST(FlagSetDeathTest, FailAfterParse) {
  AllFlags all;
  ParseArgs(all.flags, {});
  EXPECT_EXIT(all.flags.Fail("bad seed"), ::testing::ExitedWithCode(2),
              "prog: bad seed\nusage: prog");
}

TEST(FlagSetDeathTest, HelpExitsZeroBeforeLaterArguments) {
  AllFlags all;
  EXPECT_EXIT(ParseArgs(all.flags, {"--help", "--shards=0"}), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace nymix
