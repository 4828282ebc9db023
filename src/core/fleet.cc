#include "src/core/fleet.h"

namespace nymix {
namespace {

// Cloud fetch wire sizes: a small consensus-style request, a directory-ish
// reply. Serialization on the 50 Mbit default channel stays well under the
// window period, so replies always make their promised window.
constexpr size_t kCloudRequestBytes = 512;
constexpr size_t kCloudReplyBytes = 4096;

// Adapter so the cloud gateway/client sinks can be plain lambdas owned by
// the fleet (PacketSink is the only wire-facing interface).
class FnPacketSink : public PacketSink {
 public:
  explicit FnPacketSink(std::function<void(const Packet&)> fn) : fn_(std::move(fn)) {}
  void OnPacket(const Packet& packet, Link&, bool) override { fn_(packet); }

 private:
  std::function<void(const Packet&)> fn_;
};

FleetDriver::Config DriverConfig(const FleetOptions& options, bool crossed) {
  if (crossed) {
    NYMIX_CHECK(options.cloud_weight_max >= 1);
    NYMIX_CHECK(options.cloud_window > 0);
    NYMIX_CHECK(options.cloud_latency > 0);
  }
  FleetDriver::Config config;
  config.nym_count = options.nym_count;
  config.nyms_per_host = options.nyms_per_host;
  config.generations = options.generations;
  config.passes_per_generation = options.visits_per_generation;
  config.think_label = "fleet.think";
  config.name_prefix = "c";
  config.tor = options.tor;
  config.placement = options.placement;
  config.images = options.images;
  return config;
}

// Post-run aggregates: per shard in shard-id order, per host in creation
// order.
template <typename Fn>
uint64_t SumShards(ShardedSimulation& sharded, Fn fn) {
  uint64_t total = 0;
  for (int s = 0; s < sharded.shard_count(); ++s) {
    total += fn(sharded.shard(s));
  }
  return total;
}

template <typename Fn>
uint64_t SumHosts(const FleetDriver& driver, Fn fn) {
  uint64_t total = 0;
  for (int h = 0; h < driver.host_count(); ++h) {
    total += fn(driver.cluster(h).host->ksm());
  }
  return total;
}

}  // namespace

ShardedFleet::ShardedFleet(ShardedSimulation& sharded, const FleetOptions& options,
                           uint64_t seed)
    : sharded_(sharded),
      options_(options),
      seed_(seed),
      // A crossed fleet needs a second shard to host the cloud; on a 1-shard
      // plan it degrades to the isolated workload (fleet.h documents this).
      crossed_(options.topology == FleetTopology::kCrossed && sharded.shard_count() >= 2),
      driver_(sharded, DriverConfig(options_, crossed_), seed, *this) {
  if (!crossed_) {
    return;
  }
  // The cloud ring: shard s's nyms fetch from a gateway hosted on shard
  // (s+1) % K. Both directions promise windowed departures (requests on
  // the hour, replies half a window later), which is the application
  // lookahead the executor's adaptive horizon feeds on.
  const int shards = sharded_.shard_count();
  SendSchedule request_windows{options_.cloud_window, 0};
  SendSchedule reply_windows{options_.cloud_window, options_.cloud_window / 2};
  cloud_edges_.resize(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    int server = (s + 1) % shards;
    CloudEdge& edge = cloud_edges_[static_cast<size_t>(s)];
    edge.channel =
        sharded_.CreateChannel("cloud-s" + std::to_string(s), s, server,
                               options_.cloud_latency, options_.cloud_bandwidth_bps);
    edge.channel->PromiseSendWindows(request_windows, reply_windows);
    // Worst case every slot on the shard has a request and a reply
    // buffered in the same epoch.
    edge.channel->ReserveOutboxes(static_cast<size_t>(options_.nym_count) + 1);
    CrossShardChannel* channel = edge.channel;
    EventLoop* server_loop = &sharded_.shard(server).loop();
    edge.gateway = std::make_unique<FnPacketSink>([channel, server_loop](const Packet& request) {
      // Serve the fetch: the reply departs at the next promised reply
      // window, echoing the request's correlation annotation.
      std::string annotation = request.annotation;
      SimTime window = NextSendWindow(channel->schedule_b_to_a(), server_loop->now());
      server_loop->ScheduleAt(window, [channel, annotation = std::move(annotation)] {
        Packet reply;
        reply.payload = Bytes(kCloudReplyBytes, 0);
        reply.annotation = annotation;
        channel->b_end()->SendFromA(std::move(reply));
      });
    });
    edge.channel->b_end()->AttachA(edge.gateway.get());
    edge.client = std::make_unique<FnPacketSink>(
        [this](const Packet& reply) { HandleCloudReply(reply.annotation); });
    edge.channel->a_end()->AttachA(edge.client.get());
  }
}

ShardedFleet::~ShardedFleet() = default;

void ShardedFleet::BuildCluster(int index, FleetCluster& cluster, Simulation& sim) {
  if (crossed_) {
    // Seeded per-host heterogeneity: this is the load skew BalancedPlacement
    // exists to repack. Derived from (seed, host index) only, so the
    // multiplier survives any placement change.
    cluster.visit_multiplier =
        1 + static_cast<int>(Mix64(seed_ ^ Fnv1a64("fleet.hostweight") ^
                                   static_cast<uint64_t>(index)) %
                             static_cast<uint64_t>(options_.cloud_weight_max));
  }
  cluster.host->ksm().set_full_rescan(options_.full_recompute);
  sim.flows().set_full_recompute(options_.full_recompute);
  WebsiteProfile profile;
  profile.name = "site-" + std::to_string(index);
  profile.domain = "site" + std::to_string(index) + ".example.com";
  cluster.sites.push_back(std::make_unique<Website>(sim, profile));
  cluster.host->ksm().Start(options_.ksm_interval);
  // Snapshot this host's shareable-content histogram mid-run for the
  // cross-host reconcile. A plain scheduled event on the host's own loop:
  // shard-local, so exact virtual-time capture with no cross-thread read.
  ksm_snapshots_.emplace_back();
  HostMachine* host = cluster.host.get();
  sim.loop().ScheduleAt(options_.ksm_snapshot_time, [this, index, host] {
    ksm_snapshots_[static_cast<size_t>(index)] = host->ksm().ContentHistogram();
  });
}

bool ShardedFleet::ClaimAfterVisit(int slot, int epoch) {
  if (!crossed_) {
    return false;
  }
  if (driver_.Stale(slot, epoch)) {
    return true;
  }
  int shard = driver_.ClusterOf(slot).shard;
  EventLoop& loop = sharded_.shard(shard).loop();
  const CloudEdge& edge = cloud_edges_[static_cast<size_t>(shard)];
  // Hold the request until the promised departure window (the send-time
  // CHECK in Link would fire otherwise, by design).
  SimTime window = NextSendWindow(edge.channel->schedule_a_to_b(), loop.now());
  loop.ScheduleAt(window, [this, slot, epoch] { SendCloudFetch(slot, epoch); });
  return true;
}

void ShardedFleet::SendCloudFetch(int slot, int epoch) {
  if (driver_.Stale(slot, epoch)) {
    return;
  }
  int shard = driver_.ClusterOf(slot).shard;
  Packet request;
  request.payload = Bytes(kCloudRequestBytes, 0);
  // Correlation tag: the reply carries it back so the cloud round can
  // resume exactly the slot/epoch chain that started it.
  request.annotation = "cf:" + std::to_string(slot) + ":" + std::to_string(epoch);
  cloud_edges_[static_cast<size_t>(shard)].channel->a_end()->SendFromA(std::move(request));
}

void ShardedFleet::HandleCloudReply(const std::string& annotation) {
  // Annotation format: "cf:<slot>:<epoch>" (written by SendCloudFetch).
  size_t first = annotation.find(':');
  size_t second = annotation.find(':', first + 1);
  NYMIX_CHECK_MSG(first != std::string::npos && second != std::string::npos,
                  "malformed cloud fetch annotation");
  int slot = std::stoi(annotation.substr(first + 1, second - first - 1));
  int epoch = std::stoi(annotation.substr(second + 1));
  NYMIX_CHECK(slot >= 0 && slot < options_.nym_count);
  if (driver_.Stale(slot, epoch)) {
    // The slot crashed, churned, or gave up while the round was in flight;
    // the reply is stale and its chain is already dead.
    return;
  }
  ++driver_.ShardOf(slot).cloud_fetches;
  ++driver_.ClusterOf(slot).weight_events;
  driver_.AfterThink(slot, [this, slot, epoch] { driver_.Advance(slot, epoch); });
}

void ShardedFleet::OnShardFinished(int shard) {
  // Last slot on this shard: stop the shard's periodic KSM daemons so the
  // shard can go idle. Shard-local state only — safe on a worker thread.
  for (int h = 0; h < driver_.host_count(); ++h) {
    if (driver_.cluster(h).shard == shard) {
      driver_.cluster(h).host->ksm().Stop();
    }
  }
}

uint64_t ShardedFleet::events_executed() const {
  return SumShards(sharded_, [](Simulation& sim) { return sim.loop().events_executed(); });
}

uint64_t ShardedFleet::waterfills_full() const {
  return SumShards(sharded_, [](Simulation& sim) { return sim.flows().waterfills_full(); });
}

uint64_t ShardedFleet::waterfills_component() const {
  return SumShards(sharded_, [](Simulation& sim) { return sim.flows().waterfills_component(); });
}

uint64_t ShardedFleet::waterfill_skips() const {
  return SumShards(sharded_, [](Simulation& sim) { return sim.flows().waterfill_skips(); });
}

uint64_t ShardedFleet::ksm_memories_merged() const {
  return SumHosts(driver_, [](const KsmDaemon& ksm) { return ksm.memories_merged(); });
}

uint64_t ShardedFleet::ksm_memories_skipped() const {
  return SumHosts(driver_, [](const KsmDaemon& ksm) { return ksm.memories_skipped(); });
}

uint64_t ShardedFleet::ksm_pages_sharing() const {
  return SumHosts(driver_, [](const KsmDaemon& ksm) { return ksm.stats().pages_sharing; });
}

FleetKsmStats ShardedFleet::ReconcileKsm() const {
  return FleetKsmIndex::ReconcileHistograms(ksm_snapshots_);
}

}  // namespace nymix
