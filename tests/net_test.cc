#include <gtest/gtest.h>

#include "src/net/nat.h"
#include "src/net/simulation.h"
#include "tests/flow_model.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- Addresses

TEST(AddressTest, MacFormatting) {
  EXPECT_EQ(MacAddress::StandardGuest().ToString(), "52:54:00:12:34:56");
  EXPECT_EQ(MacAddress::Broadcast().ToString(), "ff:ff:ff:ff:ff:ff");
}

TEST(AddressTest, Ipv4FormattingAndParsing) {
  Ipv4Address ip(192, 168, 1, 100);
  EXPECT_EQ(ip.ToString(), "192.168.1.100");
  auto parsed = ParseIpv4("192.168.1.100");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, ip);
  EXPECT_FALSE(ParseIpv4("300.1.1.1").ok());
  EXPECT_FALSE(ParseIpv4("1.2.3").ok());
  EXPECT_FALSE(ParseIpv4("1.2.3.4.5").ok());
}

TEST(AddressTest, PrivateRanges) {
  EXPECT_TRUE(Ipv4Address(10, 0, 2, 15).IsPrivate());
  EXPECT_TRUE(Ipv4Address(192, 168, 0, 1).IsPrivate());
  EXPECT_TRUE(Ipv4Address(172, 16, 0, 1).IsPrivate());
  EXPECT_FALSE(Ipv4Address(172, 32, 0, 1).IsPrivate());
  EXPECT_FALSE(Ipv4Address(203, 0, 113, 1).IsPrivate());
}

TEST(PacketTest, SummaryAndWireSize) {
  Packet packet;
  packet.src_ip = Ipv4Address(10, 0, 2, 15);
  packet.dst_ip = Ipv4Address(203, 0, 113, 1);
  packet.src_port = 1234;
  packet.dst_port = 80;
  packet.payload = BytesFromString("hello");
  packet.annotation = "Probe";
  EXPECT_EQ(packet.WireSize(), 14u + 20 + 8 + 5);
  EXPECT_NE(packet.Summary().find("10.0.2.15:1234 -> 203.0.113.1:80"), std::string::npos);
  EXPECT_NE(packet.Summary().find("[Probe]"), std::string::npos);
}

// ---------------------------------------------------------------- Link

class RecordingSink : public PacketSink {
 public:
  void OnPacket(const Packet& packet, Link& link, bool from_a) override {
    (void)link;
    (void)from_a;
    packets.push_back(packet);
  }
  std::vector<Packet> packets;
};

TEST(LinkTest, DeliversAfterLatencyAndSerialization) {
  Simulation sim(1);
  Link* link = sim.CreateLink("wire", Millis(10), 1'000'000);  // 1 Mbit/s
  RecordingSink sink;
  link->AttachB(&sink);
  Packet packet;
  packet.payload = Bytes(1000 - 42, 0);  // wire size exactly 1000 bytes
  link->SendFromA(packet);
  sim.loop().RunUntilIdle();
  ASSERT_EQ(sink.packets.size(), 1u);
  // 10 ms latency + 8000 bits / 1 Mbit/s = 8 ms.
  EXPECT_EQ(sim.now(), Millis(18));
  EXPECT_EQ(link->packets_delivered(), 1u);
}

TEST(LinkTest, MissingSinkDropsSilently) {
  Simulation sim(1);
  Link* link = sim.CreateLink("wire", Millis(1), 1'000'000'000);
  link->SendFromA(Packet{});
  sim.loop().RunUntilIdle();
  EXPECT_EQ(link->packets_dropped(), 1u);
  EXPECT_EQ(link->packets_delivered(), 0u);
}

TEST(LinkTest, CaptureSeesBothDirections) {
  Simulation sim(1);
  Link* link = sim.CreateLink("wire", Millis(1), 1'000'000'000);
  RecordingSink a, b;
  link->AttachA(&a);
  link->AttachB(&b);
  PacketCapture capture;
  link->AttachCapture(&capture);
  Packet up;
  up.annotation = "Up";
  Packet down;
  down.annotation = "Down";
  link->SendFromA(up);
  link->SendFromB(down);
  sim.loop().RunUntilIdle();
  EXPECT_EQ(capture.size(), 2u);
  EXPECT_EQ(capture.CountAnnotation("Up"), 1u);
  EXPECT_EQ(capture.CountAnnotation("Down"), 1u);
  EXPECT_TRUE(capture.OnlyContains({"Up", "Down"}));
  EXPECT_FALSE(capture.OnlyContains({"Up"}));
}

// ---------------------------------------------------------------- Flows

TEST(FlowTest, SingleFlowTakesFullBandwidth) {
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(40), 10'000'000);  // 10 Mbit/s
  SimTime finished = 0;
  sim.flows().StartFlow(Route::Through({uplink}), 10'000'000 / 8, 1.0, /*stall_timeout=*/0,
                        [&](Result<SimTime> t) { finished = *t; });
  sim.loop().RunUntilIdle();
  // 80 ms setup RTT + 1 second of transfer at 10 Mbit/s.
  EXPECT_NEAR(ToSeconds(finished), 1.08, 0.01);
}

TEST(FlowTest, TwoFlowsShareBottleneckFairly) {
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(0), 10'000'000);
  std::vector<double> times;
  for (int i = 0; i < 2; ++i) {
    sim.flows().StartFlow(Route::Through({uplink}), 10'000'000 / 8, 1.0, /*stall_timeout=*/0,
                          [&](Result<SimTime> t) { times.push_back(ToSeconds(*t)); });
  }
  sim.loop().RunUntilIdle();
  ASSERT_EQ(times.size(), 2u);
  // Each gets 5 Mbit/s: both finish around 2 s.
  EXPECT_NEAR(times[0], 2.0, 0.01);
  EXPECT_NEAR(times[1], 2.0, 0.01);
}

TEST(FlowTest, LateFlowSpeedsUpAfterFirstFinishes) {
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(0), 8'000'000);  // 1 MB/s
  double t_small = 0, t_big = 0;
  sim.flows().StartFlow(Route::Through({uplink}), 1'000'000, 1.0, /*stall_timeout=*/0,
                        [&](Result<SimTime> t) { t_small = ToSeconds(*t); });
  sim.flows().StartFlow(Route::Through({uplink}), 3'000'000, 1.0, /*stall_timeout=*/0,
                        [&](Result<SimTime> t) { t_big = ToSeconds(*t); });
  sim.loop().RunUntilIdle();
  // Shared 0.5 MB/s until the small flow's 1 MB is done at t=2; the big flow
  // then has 2 MB left at full rate: t=2+2=4.
  EXPECT_NEAR(t_small, 2.0, 0.02);
  EXPECT_NEAR(t_big, 4.0, 0.02);
}

TEST(FlowTest, OverheadFactorInflatesBytes) {
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(0), 8'000'000);
  double t = 0;
  sim.flows().StartFlow(Route::Through({uplink}), 1'000'000, 1.12, /*stall_timeout=*/0,
                        [&](Result<SimTime> when) { t = ToSeconds(*when); });
  sim.loop().RunUntilIdle();
  EXPECT_NEAR(t, 1.12, 0.01);
}

TEST(FlowTest, MultiLinkRouteBottleneckedByNarrowest) {
  Simulation sim(1);
  Link* fast = sim.CreateLink("fast", Millis(5), 1'000'000'000);
  Link* slow = sim.CreateLink("slow", Millis(5), 8'000'000);
  double t = 0;
  sim.flows().StartFlow(Route::Through({fast, slow}), 1'000'000, 1.0, /*stall_timeout=*/0,
                        [&](Result<SimTime> when) { t = ToSeconds(*when); });
  sim.loop().RunUntilIdle();
  // Setup 2*(5+5)=20 ms, then 1 MB at 1 MB/s.
  EXPECT_NEAR(t, 1.02, 0.01);
}

TEST(FlowTest, CancelStopsFlow) {
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(0), 8'000'000);
  bool done = false;
  FlowId id = sim.flows().StartFlow(Route::Through({uplink}), 1'000'000, 1.0,
                                    /*stall_timeout=*/0,
                                    [&](Result<SimTime> t) { done = t.ok(); });
  sim.RunFor(Millis(100));
  EXPECT_TRUE(sim.flows().CancelFlow(id));
  sim.loop().RunUntilIdle();
  EXPECT_FALSE(done);
  EXPECT_FALSE(sim.flows().CancelFlow(id));
}

TEST(FlowTest, EightFlowsScaleLinearly) {
  // The Figure 5 shape: N flows over one bottleneck finish in ~N x single.
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(40), 10'000'000);
  const uint64_t kernel_tarball = 77 * 1000 * 1000 / 10;  // scaled down 10x
  int completed = 0;
  SimTime last = 0;
  for (int i = 0; i < 8; ++i) {
    sim.flows().StartFlow(Route::Through({uplink}), kernel_tarball, 1.0, /*stall_timeout=*/0,
                          [&](Result<SimTime> t) {
                            ++completed;
                            last = *t;
                          });
  }
  sim.loop().RunUntilIdle();
  EXPECT_EQ(completed, 8);
  double single = 8.0 * kernel_tarball / 10'000'000;  // seconds
  EXPECT_NEAR(ToSeconds(last), 8 * single, 8 * single * 0.02);
}

TEST(FlowTest, FlowRateVisible) {
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(1), 10'000'000);
  FlowId id = sim.flows().StartFlow(Route::Through({uplink}), 100'000'000, 1.0,
                                    /*stall_timeout=*/0, nullptr);
  sim.RunFor(Millis(50));
  EXPECT_NEAR(static_cast<double>(sim.flows().FlowRateBps(id)), 10'000'000, 200'000);
}

// Every started flow's rate equals the global max-min model's, bit for bit.
void ExpectModelRates(const FlowScheduler& flows) {
  const StartedFlows started = flows.StartedFlows();
  const std::vector<double> want =
      ReferenceRates(started, [](const Link* link) { return link->is_down(); });
  for (size_t i = 0; i < started.size(); ++i) {
    EXPECT_EQ(started[i].rate_bytes_per_us, want[i]) << "flow " << started[i].id;
  }
}

double StartedRate(const FlowScheduler& flows, FlowId id) {
  for (const FlowScheduler::StartedFlow& flow : flows.StartedFlows()) {
    if (flow.id == id) {
      return flow.rate_bytes_per_us;
    }
  }
  ADD_FAILURE() << "flow " << id << " not started";
  return -1;
}

TEST(FlowTest, IdleLinkFlapMakesTheNextRescheduleAComponentPass) {
  Simulation sim(1);
  FlowScheduler& flows = sim.flows();
  Link* idle = sim.CreateLink("idle", Millis(1), 8'000'000);
  Link* busy = sim.CreateLink("busy", Millis(1), 8'000'000);
  // A flow in its setup RTT crosses no link yet: its StartFlow skips.
  flows.StartFlow(Route::Through({busy}), 1'000'000, 1.0, /*stall_timeout=*/0, nullptr);
  EXPECT_EQ(flows.waterfills_component(), 0u);
  EXPECT_EQ(flows.waterfill_skips(), 1u);
  // A link no flow has ever crossed, marked dirty: the next Reschedule runs
  // a (flowless) component pass instead of skipping.
  flows.NoteLinkStateChanged(idle);
  flows.StartFlow(Route::Through({busy}), 1'000'000, 1.0, /*stall_timeout=*/0, nullptr);
  EXPECT_EQ(flows.waterfills_component(), 1u);
  EXPECT_EQ(flows.waterfill_skips(), 1u);
  // The mark was consumed.
  flows.StartFlow(Route::Through({busy}), 1'000'000, 1.0, /*stall_timeout=*/0, nullptr);
  EXPECT_EQ(flows.waterfills_component(), 1u);
  EXPECT_EQ(flows.waterfill_skips(), 2u);
}

TEST(FlowTest, LinkReusedAfterItsLastFlowLeftRatesAtTheModel) {
  Simulation sim(1);
  FlowScheduler& flows = sim.flows();
  Link* shared = sim.CreateLink("shared", Millis(0), 16'000'000);  // 2 bytes/us
  Link* narrow = sim.CreateLink("narrow", Millis(0), 8'000'000);   // 1 byte/us
  bool first_done = false;
  flows.StartFlow(Route::Through({shared}), 1'000, 1.0, /*stall_timeout=*/0,
                  [&](Result<SimTime> t) { first_done = t.ok(); });
  const FlowId background =
      flows.StartFlow(Route::Through({narrow}), 100'000'000, 1.0, /*stall_timeout=*/0, nullptr);
  sim.RunUntil([&] { return first_done; });
  ASSERT_EQ(flows.StartedFlows().size(), 1u);
  EXPECT_EQ(StartedRate(flows, background), 1.0);

  // `shared` carries nothing now. A flap on it still costs a component pass.
  const uint64_t component = flows.waterfills_component();
  const uint64_t skips = flows.waterfill_skips();
  flows.NoteLinkStateChanged(shared);
  const FlowId late = flows.StartFlow(Route::Through({shared, narrow}), 100'000'000, 1.0,
                                      /*stall_timeout=*/0, nullptr);
  EXPECT_EQ(flows.waterfills_component(), component + 1);
  EXPECT_EQ(flows.waterfill_skips(), skips);

  // Crossing `shared` again, the new flow is re-rated with the background
  // flow it meets on `narrow`: half of `narrow` each.
  sim.RunFor(Millis(1));
  ASSERT_EQ(flows.StartedFlows().size(), 2u);
  ExpectModelRates(flows);
  EXPECT_EQ(StartedRate(flows, background), 0.5);
  EXPECT_EQ(StartedRate(flows, late), 0.5);
}

TEST(FlowTest, RouteCrossingALinkTwiceClaimsTwoShares) {
  struct CountingTap : LinkTap {
    void OnPacket(const Link&, const PacketMetadata&) override {}
    void OnFlowEnded(const Link&, const FlowMetadata&) override { ++flows_ended; }
    int flows_ended = 0;
  };
  Simulation sim(1);
  FlowScheduler& flows = sim.flows();
  Link* hairpin = sim.CreateLink("hairpin", Millis(0), 8'000'000);  // 1 byte/us
  CountingTap tap;
  hairpin->AttachTap(&tap);
  const FlowId twice = flows.StartFlow(Route::Through({hairpin, hairpin}), 100'000'000, 1.0,
                                       /*stall_timeout=*/0, nullptr);
  sim.RunFor(Millis(1));
  EXPECT_EQ(StartedRate(flows, twice), 0.5);

  const FlowId once = flows.StartFlow(Route::Through({hairpin}), 100'000'000, 1.0,
                                      /*stall_timeout=*/0, nullptr);
  sim.RunFor(Millis(1));
  ExpectModelRates(flows);
  // Three crossings split the link: the doubled flow is held to one third
  // and claims two of them.
  EXPECT_DOUBLE_EQ(StartedRate(flows, twice), 1.0 / 3);
  EXPECT_DOUBLE_EQ(StartedRate(flows, once), 1.0 / 3);

  // Leaving releases both crossings, and the link's tap sees the flow once.
  EXPECT_TRUE(flows.CancelFlow(twice));
  EXPECT_EQ(tap.flows_ended, 1);
  ExpectModelRates(flows);
  EXPECT_EQ(StartedRate(flows, once), 1.0);
}

// ---------------------------------------------------------------- NAT

struct NatFixture {
  NatFixture(Simulation& sim)
      : inside(sim.CreateLink("inside", Millis(1), 1'000'000'000)),
        outside(sim.CreateLink("outside", Millis(1), 1'000'000'000)),
        nat("nat", outside, Ipv4Address(203, 0, 113, 77)) {
    nat.AttachInside(inside);
    inside->AttachA(&guest);
    outside->AttachB(&world);
  }
  Link* inside;
  Link* outside;
  NatGateway nat;
  RecordingSink guest;
  RecordingSink world;
};

Packet GuestPacket() {
  Packet packet;
  packet.src_ip = kGuestCommVmIp;
  packet.src_port = 5555;
  packet.dst_ip = Ipv4Address(203, 0, 113, 1);
  packet.dst_port = 80;
  return packet;
}

TEST(NatTest, MasqueradesOutbound) {
  Simulation sim(1);
  NatFixture fixture(sim);
  fixture.inside->SendFromA(GuestPacket());
  sim.loop().RunUntilIdle();
  ASSERT_EQ(fixture.world.packets.size(), 1u);
  const Packet& seen = fixture.world.packets[0];
  EXPECT_EQ(seen.src_ip, fixture.nat.public_ip());
  EXPECT_NE(seen.src_ip, kGuestCommVmIp);
  EXPECT_GE(seen.src_port, 32768);
  EXPECT_EQ(fixture.nat.mapping_count(), 1u);
}

TEST(NatTest, ReusesMappingPerSource) {
  Simulation sim(1);
  NatFixture fixture(sim);
  fixture.inside->SendFromA(GuestPacket());
  fixture.inside->SendFromA(GuestPacket());
  sim.loop().RunUntilIdle();
  ASSERT_EQ(fixture.world.packets.size(), 2u);
  EXPECT_EQ(fixture.world.packets[0].src_port, fixture.world.packets[1].src_port);
  EXPECT_EQ(fixture.nat.mapping_count(), 1u);
}

TEST(NatTest, ReverseTranslationForReplies) {
  Simulation sim(1);
  NatFixture fixture(sim);
  fixture.inside->SendFromA(GuestPacket());
  sim.loop().RunUntilIdle();
  Packet reply;
  reply.src_ip = Ipv4Address(203, 0, 113, 1);
  reply.src_port = 80;
  reply.dst_ip = fixture.nat.public_ip();
  reply.dst_port = fixture.world.packets[0].src_port;
  fixture.outside->SendFromB(reply);
  sim.loop().RunUntilIdle();
  ASSERT_EQ(fixture.guest.packets.size(), 1u);
  EXPECT_EQ(fixture.guest.packets[0].dst_ip, kGuestCommVmIp);
  EXPECT_EQ(fixture.guest.packets[0].dst_port, 5555);
}

TEST(NatTest, DropsUnsolicitedInbound) {
  Simulation sim(1);
  NatFixture fixture(sim);
  Packet probe;
  probe.src_ip = Ipv4Address(203, 0, 113, 9);
  probe.dst_ip = fixture.nat.public_ip();
  probe.dst_port = 4444;  // no mapping
  fixture.outside->SendFromB(probe);
  Packet misaddressed;
  misaddressed.dst_ip = Ipv4Address(203, 0, 113, 200);
  fixture.outside->SendFromB(misaddressed);
  sim.loop().RunUntilIdle();
  EXPECT_TRUE(fixture.guest.packets.empty());
  EXPECT_EQ(fixture.nat.dropped_unsolicited(), 2u);
}

TEST(NatTest, MultipleInsideLinksGetDistinctMappings) {
  Simulation sim(1);
  Link* outside = sim.CreateLink("outside", Millis(1), 1'000'000'000);
  NatGateway nat("router", outside, Ipv4Address(203, 0, 113, 88));
  Link* inside1 = sim.CreateLink("in1", Millis(1), 1'000'000'000);
  Link* inside2 = sim.CreateLink("in2", Millis(1), 1'000'000'000);
  nat.AttachInside(inside1);
  nat.AttachInside(inside2);
  RecordingSink guest1, guest2, world;
  inside1->AttachA(&guest1);
  inside2->AttachA(&guest2);
  outside->AttachB(&world);

  // Both CommVMs use the *same* guest IP and port (Nymix homogeneity) but
  // must still be distinguishable by the NAT.
  inside1->SendFromA(GuestPacket());
  inside2->SendFromA(GuestPacket());
  sim.loop().RunUntilIdle();
  ASSERT_EQ(world.packets.size(), 2u);
  EXPECT_NE(world.packets[0].src_port, world.packets[1].src_port);

  // Reply to the second mapping reaches only guest2.
  Packet reply;
  reply.src_ip = Ipv4Address(203, 0, 113, 1);
  reply.dst_ip = nat.public_ip();
  reply.dst_port = world.packets[1].src_port;
  outside->SendFromB(reply);
  sim.loop().RunUntilIdle();
  EXPECT_TRUE(guest1.packets.empty());
  ASSERT_EQ(guest2.packets.size(), 1u);
}

// ---------------------------------------------------------------- Internet

class EchoHost : public InternetHost {
 public:
  void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override {
    ++requests;
    Packet response;
    response.src_ip = packet.dst_ip;
    response.src_port = packet.dst_port;
    response.dst_ip = packet.src_ip;
    response.dst_port = packet.src_port;
    response.payload = packet.payload;
    response.annotation = "Echo";
    reply(response);
  }
  int requests = 0;
};

TEST(InternetTest, DnsAndRouting) {
  Simulation sim(1);
  EchoHost echo;
  Ipv4Address ip = sim.internet().RegisterHost("echo.example.com", &echo);
  auto resolved = sim.internet().Resolve("echo.example.com");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, ip);
  EXPECT_FALSE(sim.internet().Resolve("missing.example.com").ok());

  Link* uplink = sim.CreateLink("uplink", Millis(40), 10'000'000);
  sim.internet().AttachUplink(uplink);
  RecordingSink client;
  uplink->AttachA(&client);

  Packet request;
  request.src_ip = Ipv4Address(203, 0, 113, 50);
  request.src_port = 999;
  request.dst_ip = ip;
  request.dst_port = 80;
  request.payload = BytesFromString("ping");
  uplink->SendFromA(request);
  sim.loop().RunUntilIdle();
  EXPECT_EQ(echo.requests, 1);
  ASSERT_EQ(client.packets.size(), 1u);
  EXPECT_EQ(StringFromBytes(client.packets[0].payload), "ping");
}

TEST(InternetTest, UnroutableDstDropped) {
  Simulation sim(1);
  Link* uplink = sim.CreateLink("uplink", Millis(1), 10'000'000);
  sim.internet().AttachUplink(uplink);
  Packet request;
  request.dst_ip = Ipv4Address(203, 0, 113, 254);
  uplink->SendFromA(request);
  sim.loop().RunUntilIdle();
  EXPECT_EQ(sim.internet().dropped_no_route(), 1u);
}

}  // namespace
}  // namespace nymix
