// Property suite for the parallel sharded executor (src/parallel): for a
// fixed (seed, shard count, scenario), the merged trace JSON and metrics
// dump must be BYTE-identical at every thread count. Two storm generators
// drive the sweep:
//   * net storms — random cross-shard channel topologies with fault
//     profiles, echo ping-pong traffic, shard-local flow competition and
//     link flaps, swept over >= 20 seeds at 1/2/4/8 threads;
//   * fleet churn storms — full nym lifecycle (boot, Tor, visits,
//     terminate + replace) through ShardedFleet.
// Identity is compared as whole strings: one reordered event, one float
// summed in a different order, one racing counter — anything — fails the
// diff. The cross-delivery assertions keep the property non-vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/fleet.h"
#include "src/parallel/sharded_sim.h"
#include "src/util/thread_pool.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests

TEST(ThreadPoolTest, InlinePoolRunsInOrderOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<size_t> order;
  pool.RunIndexed(5, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  // Each index's slot is touched by exactly one worker (the RunIndexed
  // contract), so plain ints are race-free here.
  std::vector<int> hits(257, 0);
  pool.RunIndexed(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<int> hits(16, 0);
    pool.RunIndexed(hits.size(), [&](size_t i) { ++hits[i]; });
    for (int h : hits) {
      ASSERT_EQ(h, 1);
    }
  }
}

TEST(ThreadPoolTest, EmptyBatchAndHardwareThreads) {
  ThreadPool pool(2);
  pool.RunIndexed(0, [&](size_t) { FAIL() << "no indexes to run"; });
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

// ---------------------------------------------------------------------------
// Net storms

// Replies to every packet until `deadline`, counting arrivals in the
// shard's metrics. All state is shard-local: the sink lives on the loop
// that owns its half-link.
class EchoSink : public PacketSink {
 public:
  EchoSink(EventLoop& loop, Link* out, std::string name, SimTime deadline)
      : loop_(loop), out_(out), name_(std::move(name)), deadline_(deadline) {}

  void Kick() { Send(); }

  void OnPacket(const Packet& packet, Link&, bool) override {
    (void)packet;
    if (MetricsRegistry* meters = loop_.meters()) {
      meters->GetCounter("storm.echo." + name_)->Increment();
    }
    if (TraceRecorder* tracer = loop_.tracer()) {
      tracer->AddInstant("storm", "echo:" + name_, name_, loop_.now());
    }
    if (loop_.now() < deadline_) {
      // Reply from a fresh event so a lossy pair can't recurse in zero time.
      loop_.ScheduleAfter(Millis(1), [this] { Send(); });
    }
  }

 private:
  void Send() {
    Packet packet;
    packet.payload = Bytes(64);
    packet.annotation = name_;
    out_->SendFromA(std::move(packet));
  }

  EventLoop& loop_;
  Link* out_;
  std::string name_;
  SimTime deadline_;
};

struct StormResult {
  std::string trace;
  std::string stats;
  uint64_t cross_deliveries = 0;
  uint64_t epochs = 0;
};

// Random cross-shard topology + faults + local flow churn, fully determined
// by (seed); `threads` must not change a byte of the outputs.
StormResult RunNetStorm(uint64_t seed, int threads) {
  Prng prng(Mix64(seed ^ 0x5702a11e1ULL));
  int shards = 2 + static_cast<int>(seed % 3);
  ShardedSimulation sharded(seed, ShardPlan{shards, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);

  const SimTime deadline = Seconds(5);
  std::vector<std::unique_ptr<EchoSink>> sinks;

  int channel_count = 2 + static_cast<int>(prng.NextBelow(3));
  for (int c = 0; c < channel_count; ++c) {
    int a = static_cast<int>(prng.NextBelow(static_cast<uint64_t>(shards)));
    int b = (a + 1 + static_cast<int>(prng.NextBelow(static_cast<uint64_t>(shards - 1)))) %
            shards;
    SimDuration latency = Millis(1 + static_cast<SimDuration>(prng.NextBelow(15)));
    uint64_t bandwidth = (1 + prng.NextBelow(9)) * 1'000'000;
    CrossShardChannel* channel = sharded.CreateChannel(
        "storm-ch" + std::to_string(c), a, b, latency, bandwidth);
    if (prng.NextDouble() < 0.5) {
      LinkFaultProfile profile;
      profile.loss_probability = 0.05;
      profile.spike_probability = 0.10;
      profile.spike_latency = Millis(3);
      channel->SetFaultProfile(profile, Mix64(seed ^ static_cast<uint64_t>(c)));
    }
    auto sink_a = std::make_unique<EchoSink>(sharded.shard(a).loop(), channel->a_end(),
                                             "ch" + std::to_string(c) + ".a", deadline);
    auto sink_b = std::make_unique<EchoSink>(sharded.shard(b).loop(), channel->b_end(),
                                             "ch" + std::to_string(c) + ".b", deadline);
    channel->a_end()->AttachA(sink_a.get());
    channel->b_end()->AttachA(sink_b.get());
    EchoSink* kick_a = sink_a.get();
    EchoSink* kick_b = sink_b.get();
    sharded.shard(a).loop().ScheduleAt(
        Millis(static_cast<SimDuration>(prng.NextBelow(50))), [kick_a] { kick_a->Kick(); });
    sharded.shard(b).loop().ScheduleAt(
        Millis(static_cast<SimDuration>(prng.NextBelow(50))), [kick_b] { kick_b->Kick(); });
    sinks.push_back(std::move(sink_a));
    sinks.push_back(std::move(sink_b));
  }

  // Shard-local churn: competing flows over a two-link route, with a mid-run
  // link flap on some shards.
  for (int s = 0; s < shards; ++s) {
    Simulation& sim = sharded.shard(s);
    Link* first = sim.CreateLink("s" + std::to_string(s) + "-l0", Millis(2), 8'000'000);
    Link* second = sim.CreateLink("s" + std::to_string(s) + "-l1", Millis(3), 6'000'000);
    int flow_count = 1 + static_cast<int>(prng.NextBelow(4));
    for (int f = 0; f < flow_count; ++f) {
      uint64_t bytes = 100'000 + prng.NextBelow(400'000);
      Simulation* sim_ptr = &sim;
      sim.flows().StartFlow(Route::Through({first, second}), bytes, 1.1, /*stall_timeout=*/0,
                            [sim_ptr](Result<SimTime>) {
                              if (MetricsRegistry* meters = sim_ptr->loop().meters()) {
                                meters->GetCounter("storm.flows_done")->Increment();
                              }
                            });
    }
    if (prng.NextDouble() < 0.5) {
      SimTime down_at = Millis(200 + static_cast<SimDuration>(prng.NextBelow(800)));
      sim.loop().ScheduleAt(down_at, [first] { first->SetDown(true); });
      sim.loop().ScheduleAt(down_at + Millis(150), [first] { first->SetDown(false); });
    }
  }

  sharded.RunUntilIdle();
  sharded.MergeObservability();

  StormResult result;
  result.trace = sharded.merged().trace.ToChromeJson();
  std::ostringstream stats;
  sharded.merged().metrics.WriteJson(stats);
  result.stats = stats.str();
  result.cross_deliveries = sharded.cross_deliveries();
  result.epochs = sharded.epochs();
  return result;
}

TEST(ParallelEquivalenceTest, NetStormSeedSweep) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    StormResult base = RunNetStorm(seed, /*threads=*/1);
    // Non-vacuous: the topology actually exercised the cross-shard path,
    // over multiple synchronization epochs.
    ASSERT_GT(base.cross_deliveries, 0u) << "seed " << seed;
    ASSERT_GT(base.epochs, 1u) << "seed " << seed;
    for (int threads : {2, 4, 8}) {
      StormResult other = RunNetStorm(seed, threads);
      ASSERT_EQ(base.trace, other.trace)
          << "trace diverged: seed " << seed << " threads " << threads;
      ASSERT_EQ(base.stats, other.stats)
          << "stats diverged: seed " << seed << " threads " << threads;
      ASSERT_EQ(base.cross_deliveries, other.cross_deliveries);
      ASSERT_EQ(base.epochs, other.epochs);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet churn storms

StormResult RunFleetStorm(uint64_t seed, int threads) {
  ShardedSimulation sharded(seed, ShardPlan{2 + static_cast<int>(seed % 2), threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  FleetOptions options;
  options.nym_count = 4 + static_cast<int>(seed % 5);
  options.nyms_per_host = 2;
  ShardedFleet fleet(sharded, options, seed);
  fleet.Run();
  sharded.MergeObservability();

  StormResult result;
  result.trace = sharded.merged().trace.ToChromeJson();
  std::ostringstream stats;
  sharded.merged().metrics.WriteJson(stats);
  result.stats = stats.str();
  result.epochs = sharded.epochs();
  // Fold the fleet's own aggregates into the identity surface too.
  std::ostringstream extra;
  FleetKsmStats ksm = fleet.ReconcileKsm();
  extra << fleet.visits() << "/" << fleet.churns() << "/" << ksm.pages_sharing << "/"
        << ksm.cross_host_extra_sharing();
  result.stats += extra.str();
  return result;
}

TEST(ParallelEquivalenceTest, FleetChurnSeedSweep) {
  for (uint64_t seed : {7u, 21u, 42u}) {
    StormResult base = RunFleetStorm(seed, /*threads=*/1);
    for (int threads : {2, 4, 8}) {
      StormResult other = RunFleetStorm(seed, threads);
      ASSERT_EQ(base.trace, other.trace)
          << "trace diverged: seed " << seed << " threads " << threads;
      ASSERT_EQ(base.stats, other.stats)
          << "stats diverged: seed " << seed << " threads " << threads;
    }
  }
}

// Repeating the same (seed, threads) run must also be bit-stable — guards
// against leftover process-wide state (the old static id counters).
TEST(ParallelEquivalenceTest, RepeatedRunsAreStable) {
  StormResult first = RunNetStorm(3, /*threads=*/4);
  StormResult second = RunNetStorm(3, /*threads=*/4);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.stats, second.stats);
}

// ---------------------------------------------------------------------------
// Send windows and placement (pure functions)

TEST(SendScheduleTest, NextSendWindow) {
  SendSchedule unconstrained;
  EXPECT_EQ(NextSendWindow(unconstrained, Millis(123)), Millis(123));

  SendSchedule windows{Seconds(5), Millis(2500)};
  EXPECT_EQ(NextSendWindow(windows, 0), Millis(2500));           // before phase
  EXPECT_EQ(NextSendWindow(windows, Millis(2500)), Millis(2500));  // exactly on it
  EXPECT_EQ(NextSendWindow(windows, Millis(2501)), Millis(7500));  // just past
  EXPECT_EQ(NextSendWindow(windows, Millis(7500)), Millis(7500));
  EXPECT_EQ(NextSendWindow(windows, Seconds(60)), Millis(62500));
}

TEST(ShardPlacementTest, LabelAndLookup) {
  ShardPlacement rr;
  EXPECT_TRUE(rr.empty());
  EXPECT_EQ(rr.Label(), "rr");
  EXPECT_EQ(rr.shard_for(5, 4), ShardForIndex(5, 4));

  ShardPlacement table;
  table.shard_of_host = {2, 0, 1};
  EXPECT_EQ(table.Label(), "2,0,1");
  EXPECT_EQ(table.shard_for(0, 3), 2);
  EXPECT_EQ(table.shard_for(2, 3), 1);
}

TEST(ShardPlacementTest, BalancedPlacementIsDeterministicAndBalanced) {
  std::vector<double> weights = {10, 1, 1, 1, 9, 1, 1, 8};
  ShardPlacement a = BalancedPlacement(weights, 3, 99);
  ShardPlacement b = BalancedPlacement(weights, 3, 99);
  ASSERT_EQ(a.shard_of_host, b.shard_of_host);  // pure function of inputs
  ASSERT_EQ(a.shard_of_host.size(), weights.size());
  // Greedy heaviest-first bin-pack: the three heavy hosts must land on
  // three distinct shards.
  EXPECT_NE(a.shard_of_host[0], a.shard_of_host[4]);
  EXPECT_NE(a.shard_of_host[0], a.shard_of_host[7]);
  EXPECT_NE(a.shard_of_host[4], a.shard_of_host[7]);
  std::vector<double> load(3, 0);
  for (size_t i = 0; i < weights.size(); ++i) {
    load[static_cast<size_t>(a.shard_of_host[i])] += weights[i];
  }
  double max_load = std::max({load[0], load[1], load[2]});
  double min_load = std::min({load[0], load[1], load[2]});
  // Round-robin by index would put 10+9 on shard 0 and 1 on shard 1 (19 vs
  // 3); the pack must do much better than that.
  EXPECT_LE(max_load - min_load, 4.0);

  // One shard or no hosts: round-robin default.
  EXPECT_TRUE(BalancedPlacement(weights, 1, 99).empty());
  EXPECT_TRUE(BalancedPlacement({}, 3, 99).empty());
}

// ---------------------------------------------------------------------------
// Cross-shard delivery total order under bursty same-tick traffic

// Records every arrival (virtual time + annotation) in shard-local order.
class OrderRecordingSink : public PacketSink {
 public:
  explicit OrderRecordingSink(EventLoop& loop) : loop_(loop) {}

  void OnPacket(const Packet& packet, Link&, bool) override {
    arrivals_.push_back({loop_.now(), packet.annotation});
  }

  const std::vector<std::pair<SimTime, std::string>>& arrivals() const { return arrivals_; }

 private:
  EventLoop& loop_;
  std::vector<std::pair<SimTime, std::string>> arrivals_;
};

// Bursty, same-tick, multi-channel storm into one destination shard: three
// source shards, two parallel channels from one of them (identical wire
// parameters, so same-tick bursts collide at identical deliver_at), packets
// annotated "b<burst>:s<src>:c<channel>:k<index>". The regression this
// guards: deliveries that tie on deliver_at must drain in (src shard,
// channel id, seq) order, at every thread count.
std::vector<std::pair<SimTime, std::string>> RunBurstStorm(int threads,
                                                           std::string* trace_out) {
  ShardedSimulation sharded(11, ShardPlan{4, threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  // Channels 0 and 1 both run shard 1 -> shard 0; channel 2 runs 2 -> 0;
  // channel 3 runs 3 -> 0. Identical latency + bandwidth everywhere.
  struct Src {
    int shard;
    CrossShardChannel* channel;
  };
  std::vector<Src> sources;
  sources.push_back({1, sharded.CreateChannel("burst-0", 1, 0, Millis(5), 1'000'000)});
  sources.push_back({1, sharded.CreateChannel("burst-1", 1, 0, Millis(5), 1'000'000)});
  sources.push_back({2, sharded.CreateChannel("burst-2", 2, 0, Millis(5), 1'000'000)});
  sources.push_back({3, sharded.CreateChannel("burst-3", 3, 0, Millis(5), 1'000'000)});

  OrderRecordingSink sink(sharded.shard(0).loop());
  for (Src& src : sources) {
    src.channel->b_end()->AttachA(&sink);
  }
  // Same-tick bursts: every source fires 3 packets per channel at the same
  // virtual instants. Send from the source loop so the outbox single-writer
  // contract holds.
  for (int burst = 0; burst < 4; ++burst) {
    SimTime at = Millis(10 * burst);
    for (size_t s = 0; s < sources.size(); ++s) {
      Src& src = sources[s];
      EventLoop& loop = sharded.shard(src.shard).loop();
      CrossShardChannel* channel = src.channel;
      int shard = src.shard;
      size_t channel_index = s;
      loop.ScheduleAt(at, [burst, channel, shard, channel_index] {
        for (int k = 0; k < 3; ++k) {
          Packet packet;
          packet.payload = Bytes(64);
          packet.annotation = "b" + std::to_string(burst) + ":s" + std::to_string(shard) +
                              ":c" + std::to_string(channel_index) + ":k" + std::to_string(k);
          channel->a_end()->SendFromA(std::move(packet));
        }
      });
    }
  }
  sharded.RunUntilIdle();
  sharded.MergeObservability();
  if (trace_out != nullptr) {
    *trace_out = sharded.merged().trace.ToChromeJson();
  }
  EXPECT_EQ(sharded.cross_deliveries(), 4u * 4u * 3u);
  return sink.arrivals();
}

TEST(ParallelEquivalenceTest, BurstDeliveryTotalOrder) {
  std::string base_trace;
  auto base = RunBurstStorm(/*threads=*/1, &base_trace);
  ASSERT_EQ(base.size(), 48u);
  // Arrival order must be the documented total order: nondecreasing in
  // virtual time, and within one instant ordered by (src shard, channel id,
  // seq) — which the annotation encodes as (s, c, k).
  for (size_t i = 1; i < base.size(); ++i) {
    ASSERT_LE(base[i - 1].first, base[i].first) << "time went backwards at " << i;
    if (base[i - 1].first == base[i].first) {
      ASSERT_LT(base[i - 1].second.substr(3), base[i].second.substr(3))
          << "tie broken out of order at " << i << ": " << base[i - 1].second << " then "
          << base[i].second;
    }
  }
  // Same-tick cross-channel collisions actually happened (the test is
  // vacuous otherwise): bursts on channels 0 and 1 leave shard 1 at the
  // same tick with identical wire parameters, so they tie on deliver_at.
  bool any_tie = false;
  for (size_t i = 1; i < base.size(); ++i) {
    any_tie = any_tie || base[i - 1].first == base[i].first;
  }
  ASSERT_TRUE(any_tie);
  for (int threads : {2, 4, 8}) {
    std::string trace;
    auto other = RunBurstStorm(threads, &trace);
    ASSERT_EQ(base, other) << "arrival order diverged at threads " << threads;
    ASSERT_EQ(base_trace, trace) << "trace diverged at threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Crossed fleet topology

StormResult RunCrossedFleetStorm(uint64_t seed, int threads, const ShardPlacement& placement) {
  ShardedSimulation sharded(seed, ShardPlan{2 + static_cast<int>(seed % 2), threads});
  sharded.EnableObservability(/*record_wall_time=*/false);
  FleetOptions options;
  options.nym_count = 4 + static_cast<int>(seed % 5);
  options.nyms_per_host = 2;
  options.topology = FleetTopology::kCrossed;
  options.placement = placement;
  ShardedFleet fleet(sharded, options, seed);
  fleet.Run();
  sharded.MergeObservability();

  StormResult result;
  result.trace = sharded.merged().trace.ToChromeJson();
  std::ostringstream stats;
  sharded.merged().metrics.WriteJson(stats);
  result.stats = stats.str();
  result.epochs = sharded.epochs();
  result.cross_deliveries = sharded.cross_deliveries();
  std::ostringstream extra;
  extra << fleet.visits() << "/" << fleet.churns() << "/" << fleet.cloud_fetches();
  result.stats += extra.str();
  return result;
}

TEST(ParallelEquivalenceTest, CrossedFleetSeedSweep) {
  for (uint64_t seed : {5u, 18u, 33u}) {
    StormResult base = RunCrossedFleetStorm(seed, /*threads=*/1, ShardPlacement{});
    // The workload actually crosses shards, over many adaptive epochs.
    ASSERT_GT(base.cross_deliveries, 0u) << "seed " << seed;
    ASSERT_GT(base.epochs, 1u) << "seed " << seed;
    for (int threads : {2, 4, 8}) {
      StormResult other = RunCrossedFleetStorm(seed, threads, ShardPlacement{});
      ASSERT_EQ(base.trace, other.trace)
          << "trace diverged: seed " << seed << " threads " << threads;
      ASSERT_EQ(base.stats, other.stats)
          << "stats diverged: seed " << seed << " threads " << threads;
      ASSERT_EQ(base.epochs, other.epochs);
      ASSERT_EQ(base.cross_deliveries, other.cross_deliveries);
    }
  }
}

TEST(ParallelEquivalenceTest, CrossedFleetBalancedPlacementIdentity) {
  const uint64_t seed = 19;  // -> 3 shards, 8 nyms over 4 hosts in the storm
  const int shards = 2 + static_cast<int>(seed % 2);
  // Calibrate exactly like bench/scale_fleet: serial run with the SAME
  // workload parameters as the measured run, observed weights.
  ShardedSimulation calibration(seed, ShardPlan{shards, 1});
  FleetOptions options;
  options.nym_count = 4 + static_cast<int>(seed % 5);
  options.nyms_per_host = 2;
  options.topology = FleetTopology::kCrossed;
  ShardedFleet probe(calibration, options, seed);
  probe.Run();
  ShardPlacement placement = BalancedPlacement(probe.HostWeights(), shards, seed);
  ASSERT_FALSE(placement.empty());

  StormResult base = RunCrossedFleetStorm(seed, /*threads=*/1, placement);
  ASSERT_GT(base.cross_deliveries, 0u);
  // The placement label is stamped into the merged trace: identity is
  // visibly a function of (seed, shards, placement).
  EXPECT_NE(base.trace.find("shard_plan:" + placement.Label()), std::string::npos);
  for (int threads : {2, 4, 8}) {
    StormResult other = RunCrossedFleetStorm(seed, threads, placement);
    ASSERT_EQ(base.trace, other.trace) << "threads " << threads;
    ASSERT_EQ(base.stats, other.stats) << "threads " << threads;
  }
  // A different placement is a different experiment: the trace must change
  // (the round-robin run has no placement stamp, and host->shard moves).
  StormResult rr = RunCrossedFleetStorm(seed, /*threads=*/1, ShardPlacement{});
  EXPECT_NE(base.trace, rr.trace);
}

// Regression: a crossed fleet whose server shard has no hosts of its own.
// All 8 nyms fit one host (shard 0), leaving shard 1 idle until the first
// cloud fetch arrives. Before the execution-floor fixpoint the executor saw
// an idle neighbor, gave shard 0 an unbounded horizon, and ran it to idle —
// which never came, because the slots were waiting on cloud replies only
// shard 1 could serve (the KSM daemons kept the loop alive forever).
TEST(ParallelEquivalenceTest, CrossedFleetWithHostlessServerShardTerminates) {
  ShardedSimulation sharded(13, ShardPlan{2, 1});
  FleetOptions options;
  options.nym_count = 8;
  options.nyms_per_host = 8;  // one host -> every slot on shard 0
  options.topology = FleetTopology::kCrossed;
  ShardedFleet fleet(sharded, options, 13);
  fleet.Run();
  EXPECT_GT(fleet.cloud_fetches(), 0u);
  EXPECT_GT(sharded.cross_deliveries(), 0u);
  EXPECT_GT(sharded.epochs(), 1u);
}

// The send-window promises are what collapse the epoch count: horizons jump
// to the next cloud window instead of trailing each shard's next local
// event at wire-latency granularity. With ~200ms latency and dense local
// events, latency-granular epochs would number in the thousands for this
// run; windowed horizons need a small handful per cloud round-trip.
TEST(ParallelEquivalenceTest, AdaptiveHorizonsCollapseEpochs) {
  ShardedSimulation sharded(7, ShardPlan{2, 1});
  FleetOptions options;
  options.nym_count = 4;
  options.nyms_per_host = 2;
  options.topology = FleetTopology::kCrossed;
  ShardedFleet fleet(sharded, options, 7);
  fleet.Run();
  ASSERT_GT(sharded.cross_deliveries(), 0u);
  uint64_t rounds = fleet.cloud_fetches();
  ASSERT_GT(rounds, 0u);
  // Generous bound: a few epochs per completed cloud round (request window,
  // delivery, reply window, delivery), plus constant start/drain slack.
  EXPECT_LT(sharded.epochs(), 8 * rounds + 32);
}

}  // namespace
}  // namespace nymix
