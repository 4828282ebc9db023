// Tests for src/obs: trace recording + Chrome JSON export, metrics
// registry, histograms, the JSON validator, and the EventLoop integration.
#include <gtest/gtest.h>

// nymlint:allow-file(store-raw-io): reads back a file the unit under test
// (WriteChromeJsonFile) just wrote; no simulator state is persisted here.
#include <fstream>
#include <limits>
#include <sstream>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/trace.h"
#include "src/util/event_loop.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonTest, NumbersAreValidJson) {
  EXPECT_EQ(JsonNumber(5.0), "5");
  EXPECT_EQ(JsonNumber(uint64_t{12345}), "12345");
  EXPECT_EQ(JsonNumber(int64_t{-7}), "-7");
  // Non-finite values have no JSON representation; they collapse to 0.
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "0");
  EXPECT_TRUE(JsonValidate("{\"x\": " + JsonNumber(0.1) + "}"));
}

TEST(JsonTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(JsonValidate("{}"));
  EXPECT_TRUE(JsonValidate("[1, 2.5, -3e4, \"s\", true, false, null]"));
  EXPECT_TRUE(JsonValidate("{\"a\": {\"b\": [\"\\u0041\", \"\\n\"]}}"));
  EXPECT_FALSE(JsonValidate(""));
  EXPECT_FALSE(JsonValidate("{"));
  EXPECT_FALSE(JsonValidate("{\"a\": 1,}"));
  EXPECT_FALSE(JsonValidate("[1] trailing"));
  EXPECT_FALSE(JsonValidate("{'single': 1}"));
}

// ---------------------------------------------------------------- Trace

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  SimClock clock;
  recorder.AddComplete("core", "x", "t", 0, 100);
  recorder.AddInstant("core", "i", "t", 5);
  recorder.AddCounter("core", "c", 5, 1.0);
  { TraceSpan span(&recorder, clock, "core", "span", "t"); }
  { TraceSpan span(nullptr, clock, "core", "span", "t"); }
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(TraceTest, SpanNestingByContainment) {
  Observability obs;
  obs.trace.set_enabled(true);
  EventLoop loop;
  loop.set_observability(&obs);

  // outer: [0, 30ms]; inner: [10ms, 20ms] — same track, so Chrome nests
  // them by containment.
  loop.ScheduleAfter(Millis(0), [&] {
    auto* outer = new TraceSpan(loop.tracer(), loop.clock(), "core", "outer", "nym");
    loop.ScheduleAfter(Millis(10), [&] {
      auto* inner = new TraceSpan(loop.tracer(), loop.clock(), "core", "inner", "nym");
      loop.ScheduleAfter(Millis(10), [inner] { delete inner; });
    });
    loop.ScheduleAfter(Millis(30), [outer] { delete outer; });
  });
  loop.RunUntilIdle();

  ASSERT_EQ(obs.trace.event_count(), 2u);
  std::string json = obs.trace.ToChromeJson();
  EXPECT_TRUE(JsonValidate(json));
  // The inner span closes first so it is recorded first.
  EXPECT_LT(json.find("\"inner\""), json.find("\"outer\""));
  EXPECT_NE(json.find("\"dur\":10000"), std::string::npos);  // inner: 10 ms
  EXPECT_NE(json.find("\"dur\":30000"), std::string::npos);  // outer: 30 ms
  EXPECT_NE(json.find("\"nym\""), std::string::npos);        // thread_name metadata
}

TEST(TraceTest, TracksGetDistinctTids) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.AddComplete("hv", "boot", "vm-a", 0, 10);
  recorder.AddComplete("hv", "boot", "vm-b", 0, 10);
  std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonValidate(json));
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(TraceTest, NextTimelineShiftsPastPriorEvents) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.AddComplete("core", "run1", "t", 0, Seconds(10));
  recorder.NextTimeline(Seconds(1));
  recorder.AddComplete("core", "run2", "t", 0, Seconds(5));
  std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonValidate(json));
  // run2 starts at 10s + 1s gap = 11s in trace time.
  EXPECT_NE(json.find("\"ts\":" + std::to_string(Seconds(11))), std::string::npos);
}

TEST(TraceTest, AsyncAndCounterEventsExport) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.AddAsyncBegin("net", "flow", 7, 100);
  recorder.AddAsyncEnd("net", "flow", 7, 500);
  recorder.AddCounter("core", "queue", 300, 42.0);
  std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonValidate(json));
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x7\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("a.count");
  counter->Increment();
  counter->Increment(9);
  EXPECT_EQ(counter->value(), 10u);
  EXPECT_EQ(registry.GetCounter("a.count"), counter);  // stable pointer

  Gauge* gauge = registry.GetGauge("a.gauge");
  gauge->Set(3.5);
  gauge->Add(1.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 5.0);
}

TEST(MetricsTest, HistogramPercentilesWithinLogBucketError) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Record(static_cast<double>(i));
  }
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1000.0);
  // Geometric buckets with ratio 2^(1/8) bound relative error at ~4.5%.
  EXPECT_NEAR(histogram.Percentile(50), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(histogram.Percentile(95), 950.0, 950.0 * 0.05);
  EXPECT_NEAR(histogram.Percentile(99), 990.0, 990.0 * 0.05);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100), 1000.0);
}

TEST(MetricsTest, HistogramHandlesZeroNegativeAndEmpty) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);

  Histogram histogram;
  histogram.Record(0);
  histogram.Record(-5);
  histogram.Record(10);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.min(), -5.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 10.0);
  EXPECT_GE(histogram.Percentile(50), -5.0);
  EXPECT_LE(histogram.Percentile(50), 10.0);
}

TEST(MetricsTest, JsonDumpIsValidAndStable) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Increment(2);
  registry.GetCounter("a.first")->Increment();
  registry.GetGauge("mid \"quoted\"")->Set(1.25);
  for (int i = 0; i < 100; ++i) {
    registry.GetHistogram("lat")->Record(i + 1);
  }
  std::ostringstream out;
  registry.WriteJson(out);
  std::string json = out.str();
  EXPECT_TRUE(JsonValidate(json)) << json;
  EXPECT_LT(json.find("a.first"), json.find("z.last"));  // lexicographic order
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// ------------------------------------------------------- EventLoop hookup

TEST(ObservabilityTest, EventLoopCountsExecutedEvents) {
  Observability obs;
  obs.EnableAll();
  EventLoop loop;
  loop.set_observability(&obs);
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAfter(Millis(i), [] {});
  }
  loop.RunUntilIdle();
  EXPECT_EQ(obs.metrics.GetCounter("core.event_loop.events_executed")->value(), 5u);
  EXPECT_EQ(obs.metrics.GetHistogram("core.event_loop.event_wall_ns")->count(), 5u);
}

TEST(ObservabilityTest, DetachedLoopRecordsNothing) {
  Observability obs;
  obs.EnableAll();
  EventLoop loop;
  loop.set_observability(&obs);
  loop.set_observability(nullptr);  // detach again
  loop.ScheduleAfter(Millis(1), [] {});
  loop.RunUntilIdle();
  EXPECT_EQ(obs.metrics.GetCounter("core.event_loop.events_executed")->value(), 0u);
  EXPECT_EQ(loop.tracer(), nullptr);
  EXPECT_EQ(loop.meters(), nullptr);
}

TEST(ObservabilityTest, DisabledRegistryKeepsMetersNull) {
  Observability obs;  // neither trace nor metrics enabled
  EventLoop loop;
  loop.set_observability(&obs);
  EXPECT_EQ(loop.tracer(), nullptr);
  EXPECT_EQ(loop.meters(), nullptr);
  loop.ScheduleAfter(Millis(1), [] {});
  loop.RunUntilIdle();
  EXPECT_EQ(obs.metrics.instrument_count(), 0u);
  EXPECT_EQ(obs.trace.event_count(), 0u);
}

TEST(ObservabilityTest, TraceFileRoundTripsThroughValidator) {
  Observability obs;
  obs.EnableAll();
  EventLoop loop;
  loop.set_observability(&obs);
  loop.ScheduleAfter(Millis(1), [&] {
    TraceSpan span(loop.tracer(), loop.clock(), "core", "work", "track");
  });
  loop.RunUntilIdle();
  std::string path = testing::TempDir() + "/obs_trace_round_trip.json";
  ASSERT_TRUE(obs.trace.WriteChromeJsonFile(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonValidate(buffer.str()));
  EXPECT_NE(buffer.str().find("\"work\""), std::string::npos);
}

}  // namespace
}  // namespace nymix
