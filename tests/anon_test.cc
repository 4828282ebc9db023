#include <gtest/gtest.h>

#include "src/anon/chain.h"
#include "src/anon/dissent.h"
#include "src/anon/incognito.h"
#include "src/anon/sweet.h"
#include "src/anon/tor.h"
#include "src/net/nat.h"

namespace nymix {
namespace {

// A harness standing in for the CommVM + host wiring: one vm uplink behind
// a host NAT, the 10 Mbit DeterLab-style uplink, and a destination server.
struct AnonHarness {
  explicit AnonHarness(uint64_t seed = 1)
      : sim(seed),
        uplink(sim.CreateLink("host-uplink", Millis(40), 10'000'000)),
        public_ip(sim.internet().AllocatePublicIp()),
        router("host-router", uplink, public_ip),
        vm_uplink(sim.CreateLink("vm-uplink", Micros(100), 1'000'000'000)) {
    sim.internet().AttachUplink(uplink);
    router.AttachInside(vm_uplink);
    server_link = sim.CreateLink("server", Millis(5), 100'000'000);
    server_ip = sim.internet().RegisterHost("files.example.com", &server, server_link);
  }

  ClientAttachment Attachment() {
    ClientAttachment attachment;
    attachment.sim = &sim;
    attachment.vm_uplink = vm_uplink;
    attachment.client_links = {vm_uplink, uplink};
    attachment.host_public_ip = public_ip;
    return attachment;
  }

  // Wire an anonymizer as the guest side of the vm uplink.
  void AttachGuest(Anonymizer* anonymizer) {
    adapter = std::make_unique<AnonymizerPortAdapter>(anonymizer);
    vm_uplink->AttachA(adapter.get());
  }

  class NullServer : public InternetHost {
   public:
    void OnDatagram(const Packet&, const std::function<void(Packet)>&) override {}
  };

  Simulation sim;
  Link* uplink;
  Ipv4Address public_ip;
  NatGateway router;
  Link* vm_uplink;
  NullServer server;
  Link* server_link;
  Ipv4Address server_ip;
  std::unique_ptr<AnonymizerPortAdapter> adapter;
};

// ---------------------------------------------------------------- Tor

TEST(TorNetworkTest, RelayFlagsAndDirectory) {
  Simulation sim(1);
  TorNetwork network(sim);
  EXPECT_EQ(network.relays().size(), 12u);
  EXPECT_EQ(network.GuardIndices().size(), 4u);
  EXPECT_EQ(network.ExitIndices().size(), 4u);
  EXPECT_TRUE(sim.internet().Resolve("relay0.tor.net").ok());
  EXPECT_TRUE(sim.internet().FindHost(network.directory_ip()) != nullptr);
  auto index = network.IndexOfRelay("relay3");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 3u);
  EXPECT_FALSE(network.IndexOfRelay("nope").ok());
}

TEST(TorClientTest, BootstrapBuildsCircuit) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient client(harness.Attachment(), network, /*seed=*/7);
  harness.AttachGuest(&client);
  SimTime ready_at = 0;
  client.Start([&](Result<SimTime> t) { ready_at = *t; });
  harness.sim.loop().RunUntilIdle();
  EXPECT_TRUE(client.ready());
  EXPECT_EQ(client.circuits_built(), 1);
  ASSERT_TRUE(client.entry_guard_index().has_value());
  EXPECT_TRUE(network.relays()[*client.entry_guard_index()].is_guard);
  ASSERT_TRUE(client.exit_index().has_value());
  EXPECT_TRUE(network.relays()[*client.exit_index()].is_exit);
  // Fresh bootstrap downloads ~8 MiB over 10 Mbit/s plus processing and
  // three handshake RTTs: several seconds, well over five.
  EXPECT_GT(ToSeconds(ready_at), 5.0);
  EXPECT_LT(ToSeconds(ready_at), 25.0);
}

TEST(TorClientTest, WarmBootstrapMuchFaster) {
  AnonHarness harness;
  TorNetwork network(harness.sim);

  TorClient cold(harness.Attachment(), network, 7);
  harness.AttachGuest(&cold);
  SimTime cold_ready = 0;
  cold.Start([&](Result<SimTime> t) { cold_ready = *t; });
  harness.sim.loop().RunUntilIdle();

  // Persist state into a CommVM filesystem, restore into a new client.
  MemFs state;
  ASSERT_TRUE(cold.SaveState(state).ok());
  TorClient warm(harness.Attachment(), network, 8);
  ASSERT_TRUE(warm.RestoreState(state).ok());
  EXPECT_TRUE(warm.has_cached_consensus());
  harness.AttachGuest(&warm);
  SimTime start = harness.sim.now();
  SimTime warm_ready = 0;
  warm.Start([&](Result<SimTime> t) { warm_ready = *t; });
  harness.sim.loop().RunUntilIdle();
  EXPECT_LT(ToSeconds(warm_ready - start), 0.6 * ToSeconds(cold_ready));
  // Restored client reuses the persisted guard (§3.5).
  EXPECT_EQ(*warm.entry_guard_index(), *cold.entry_guard_index());
}

TEST(TorClientTest, SeededGuardIsDeterministic) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient a(harness.Attachment(), network, 1);
  TorClient b(harness.Attachment(), network, 2);
  a.SeedGuardSelection(0xfeedULL);
  b.SeedGuardSelection(0xfeedULL);
  harness.AttachGuest(&a);
  a.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  harness.AttachGuest(&b);
  b.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(a.entry_guard_index().has_value());
  EXPECT_EQ(*a.entry_guard_index(), *b.entry_guard_index());
}

TEST(TorClientTest, FetchPaysCellOverheadAndExitIdentity) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient client(harness.Attachment(), network, 7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();

  SimTime start = harness.sim.now();
  Result<FetchReceipt> receipt = NotFoundError("pending");
  client.Fetch("files.example.com", 1000, 5'000'000, [&](Result<FetchReceipt> r) {
    receipt = std::move(r);
  });
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(receipt.ok());
  // ~5 MB * 1.12 at 10 Mbit/s ≈ 4.5 s (plus RTTs).
  double elapsed = ToSeconds(receipt->completed_at - start);
  double ideal = 5'000'000.0 * 8 / 10'000'000;
  EXPECT_GT(elapsed, ideal * 1.08);
  EXPECT_LT(elapsed, ideal * 1.25);
  // The destination sees the stream's exit relay, not the user.
  EXPECT_EQ(receipt->observed_source,
            network.relays()[client.ExitIndexForDestination("files.example.com")].ip);
  EXPECT_TRUE(
      network.relays()[client.ExitIndexForDestination("files.example.com")].is_exit);
  EXPECT_NE(receipt->observed_source, harness.public_ip);
}

TEST(TorClientTest, OnionForwardingBlindsLaterHops) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient client(harness.Attachment(), network, 7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(client.ready());

  size_t guard = *client.entry_guard_index();
  // Identify the middle hop: the relay (other than guard/exit) that saw
  // traffic.
  TorRelay& guard_relay = network.relay(guard);
  // Guard heard from the client's NAT'd address — never the guest IP.
  EXPECT_EQ(guard_relay.sources_seen().count(kGuestCommVmIp), 0u);
  EXPECT_GT(guard_relay.cells_forwarded(), 0u);

  Ipv4Address guard_ip = network.relays()[guard].ip;
  bool checked_later_hop = false;
  for (size_t i = 0; i < network.relays().size(); ++i) {
    if (i == guard) {
      continue;
    }
    const auto& sources = network.relay(i).sources_seen();
    if (sources.empty()) {
      continue;
    }
    checked_later_hop = true;
    // Later hops only ever hear from other relays: never the client's NAT
    // address, never the guest address.
    for (const Ipv4Address& source : sources) {
      bool is_relay_ip = false;
      for (const auto& info : network.relays()) {
        is_relay_ip |= info.ip == source;
      }
      EXPECT_TRUE(is_relay_ip) << source.ToString();
    }
    (void)guard_ip;
  }
  EXPECT_TRUE(checked_later_hop);
}

TEST(TorClientTest, StreamIsolationPinsExitPerDestination) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient client(harness.Attachment(), network, 7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  size_t exit_a = client.ExitIndexForDestination("a.example.com");
  size_t exit_b = client.ExitIndexForDestination("b.example.com");
  // Stable per destination...
  EXPECT_EQ(client.ExitIndexForDestination("a.example.com"), exit_a);
  EXPECT_EQ(client.ExitIndexForDestination("b.example.com"), exit_b);
  EXPECT_EQ(client.isolated_destinations(), 2u);
  // ...and NEWNYM severs all bindings.
  client.NewIdentity(nullptr);
  harness.sim.loop().RunUntilIdle();
  EXPECT_EQ(client.isolated_destinations(), 0u);
}

TEST(TorClientTest, FetchBeforeBootstrapFails) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient client(harness.Attachment(), network, 7);
  Result<FetchReceipt> receipt = OkStatus().ok() ? Result<FetchReceipt>(FetchReceipt{})
                                                 : Result<FetchReceipt>(InternalError(""));
  bool called = false;
  client.Fetch("files.example.com", 1, 1, [&](Result<FetchReceipt> r) {
    called = true;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  });
  EXPECT_TRUE(called);
}

TEST(TorClientTest, UnknownHostIsNxdomain) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient client(harness.Attachment(), network, 7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  bool called = false;
  client.Fetch("missing.example.com", 1, 1, [&](Result<FetchReceipt> r) {
    called = true;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  });
  EXPECT_TRUE(called);
}

TEST(TorClientTest, NewIdentityRebuildsCircuit) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  TorClient client(harness.Attachment(), network, 7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  size_t guard_before = *client.entry_guard_index();
  client.NewIdentity(nullptr);
  harness.sim.loop().RunUntilIdle();
  EXPECT_EQ(client.circuits_built(), 2);
  // Guards persist across NEWNYM; only middle/exit rotate.
  EXPECT_EQ(*client.entry_guard_index(), guard_before);
  EXPECT_TRUE(client.ready());
}

TEST(TorClientTest, ControlCellsVisibleOnUplinkAsTor) {
  AnonHarness harness;
  TorNetwork network(harness.sim);
  PacketCapture capture;
  harness.uplink->AttachCapture(&capture);
  TorClient client(harness.Attachment(), network, 7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  EXPECT_GT(capture.CountAnnotation("Tor"), 0u);
  EXPECT_TRUE(capture.OnlyContains({"Tor"}));
  // No packet on the uplink ever carries the guest's private address.
  for (const auto& captured : capture.packets()) {
    EXPECT_NE(captured.packet.src_ip, kGuestCommVmIp);
  }
}

// ---------------------------------------------------------------- Incognito

TEST(IncognitoTest, FastButRevealsIdentity) {
  AnonHarness harness;
  IncognitoVpn vpn(harness.Attachment());
  SimTime ready_at = 0;
  vpn.Start([&](Result<SimTime> t) { ready_at = *t; });
  harness.sim.loop().RunUntilIdle();
  EXPECT_LT(ToSeconds(ready_at), 1.0);
  EXPECT_FALSE(vpn.ProtectsNetworkIdentity());
  EXPECT_DOUBLE_EQ(vpn.OverheadFactor(), 1.0);

  Result<FetchReceipt> receipt = InternalError("pending");
  vpn.Fetch("files.example.com", 0, 1'000'000, [&](Result<FetchReceipt> r) {
    receipt = std::move(r);
  });
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(receipt.ok());
  // The destination sees the user's real public address.
  EXPECT_EQ(receipt->observed_source, harness.public_ip);
}

// ---------------------------------------------------------------- Dissent

TEST(DissentTest, JoinAssignsSlotAndFetchWorks) {
  AnonHarness harness;
  DissentServers servers(harness.sim);
  DissentClient client(harness.Attachment(), servers, 9);
  harness.AttachGuest(&client);
  SimTime joined_at = 0;
  client.Start([&](Result<SimTime> t) { joined_at = *t; });
  harness.sim.loop().RunUntilIdle();
  EXPECT_TRUE(client.ready());
  ASSERT_TRUE(client.slot().has_value());
  EXPECT_LT(*client.slot(), kDissentGroupSize);
  EXPECT_EQ(servers.members_joined(), 1u);
  EXPECT_GT(ToSeconds(joined_at), 1.0);  // key ceremony dominates

  SimTime start = harness.sim.now();
  Result<FetchReceipt> receipt = InternalError("pending");
  client.Fetch("files.example.com", 0, 1'000'000, [&](Result<FetchReceipt> r) {
    receipt = std::move(r);
  });
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->observed_source, servers.front_ip());
  EXPECT_GT(client.rounds_used(), 0u);
  // DC-net pipe: 100 Mbit / 16 members = 6.25 Mbit, x2 ciphertext overhead
  // -> ~2.6 s for 1 MB; far slower than incognito, slower than Tor.
  EXPECT_GT(ToSeconds(receipt->completed_at - start), 2.0);
}

TEST(DissentTest, PostAnonymousMessageThroughRealRound) {
  AnonHarness harness;
  DissentServers servers(harness.sim);
  DissentClient client(harness.Attachment(), servers, 9);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(client.ready());
  ASSERT_TRUE(client.member_index().has_value());

  SimTime start = harness.sim.now();
  Result<Bytes> mixed = InternalError("pending");
  bool done = false;
  client.PostAnonymousMessage(BytesFromString("meet at the square"),
                              [&](Result<Bytes> r) {
                                mixed = std::move(r);
                                done = true;
                              });
  harness.sim.RunUntil([&] { return done; });
  ASSERT_TRUE(mixed.ok());
  // The message came back out of a genuinely-combined DC-net round.
  EXPECT_EQ(StringFromBytes(*mixed), "meet at the square");
  // One round of batching latency was paid.
  EXPECT_GE(harness.sim.now() - start, kDissentRoundInterval);
  // Oversized messages are rejected before transmission.
  bool rejected = false;
  client.PostAnonymousMessage(Bytes(4096, 0), [&](Result<Bytes> r) {
    EXPECT_FALSE(r.ok());
    rejected = true;
  });
  EXPECT_TRUE(rejected);
}

TEST(DissentTest, SlowerThanTorForSameTransfer) {
  AnonHarness harness;
  TorNetwork tor_network(harness.sim);
  DissentServers servers(harness.sim);

  TorClient tor(harness.Attachment(), tor_network, 1);
  harness.AttachGuest(&tor);
  tor.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  SimTime t0 = harness.sim.now();
  SimTime tor_done = 0;
  tor.Fetch("files.example.com", 0, 2'000'000,
            [&](Result<FetchReceipt> r) { tor_done = r->completed_at; });
  harness.sim.loop().RunUntilIdle();
  double tor_elapsed = ToSeconds(tor_done - t0);

  DissentClient dissent(harness.Attachment(), servers, 2);
  harness.AttachGuest(&dissent);
  dissent.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  SimTime t1 = harness.sim.now();
  SimTime dissent_done = 0;
  dissent.Fetch("files.example.com", 0, 2'000'000,
                [&](Result<FetchReceipt> r) { dissent_done = r->completed_at; });
  harness.sim.loop().RunUntilIdle();
  double dissent_elapsed = ToSeconds(dissent_done - t1);
  EXPECT_GT(dissent_elapsed, tor_elapsed * 1.5);
}

// ---------------------------------------------------------------- SWEET

TEST(SweetTest, HighLatencyTunnel) {
  AnonHarness harness;
  SweetTunnel sweet(harness.Attachment(), /*instance_id=*/1);
  sweet.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  EXPECT_TRUE(sweet.ready());
  SimTime start = harness.sim.now();
  Result<FetchReceipt> receipt = InternalError("pending");
  sweet.Fetch("files.example.com", 0, 100'000, [&](Result<FetchReceipt> r) {
    receipt = std::move(r);
  });
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(receipt.ok());
  // Mail batching latency dominates small transfers: > 3 s for 100 KB.
  EXPECT_GT(ToSeconds(receipt->completed_at - start), 3.0);
  EXPECT_EQ(receipt->observed_source, sweet.mail_gateway_ip());
  EXPECT_TRUE(sweet.ProtectsNetworkIdentity());
}

// ---------------------------------------------------------- Failed fetches

// A fetch whose flow dies must still answer. Loss on the host uplink dooms
// every flow (abort chance min(1, 0.3 x 4) = 1), so each anonymizer's Fetch
// callback fires exactly once, with kUnavailable.
TEST(AnonymizerTest, DoomedFlowFailsEachFetchOnce) {
  AnonHarness harness;
  DissentServers servers(harness.sim);
  IncognitoVpn vpn(harness.Attachment());
  SweetTunnel sweet(harness.Attachment(), /*instance_id=*/1);
  DissentClient dissent(harness.Attachment(), servers, 9);
  harness.AttachGuest(&dissent);
  const std::vector<Anonymizer*> anonymizers = {&vpn, &sweet, &dissent};
  for (Anonymizer* anonymizer : anonymizers) {
    anonymizer->Start(nullptr);
  }
  harness.sim.loop().RunUntilIdle();

  LinkFaultProfile profile;
  profile.loss_probability = 0.3;
  harness.uplink->SetFaultProfile(profile, harness.sim.faults().SeedFor("host-uplink"));
  for (Anonymizer* anonymizer : anonymizers) {
    ASSERT_TRUE(anonymizer->ready()) << anonymizer->Name();
    int calls = 0;
    Status status = OkStatus();
    anonymizer->Fetch("files.example.com", 0, 1'000'000, [&](Result<FetchReceipt> r) {
      ++calls;
      status = r.status();
    });
    harness.sim.loop().RunUntilIdle();
    EXPECT_EQ(calls, 1) << anonymizer->Name();
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << anonymizer->Name();
  }
}

// ---------------------------------------------------------------- Chained

TEST(ChainTest, TorOverDissentComposition) {
  AnonHarness harness;
  TorNetwork tor_network(harness.sim);
  DissentServers servers(harness.sim);
  auto inner = std::make_unique<DissentClient>(harness.Attachment(), servers, 3);
  auto outer = std::make_unique<TorClient>(harness.Attachment(), tor_network, 4);
  DissentClient* inner_ptr = inner.get();
  TorClient* outer_ptr = outer.get();
  ChainedAnonymizer chain(std::move(inner), std::move(outer));
  harness.AttachGuest(&chain);

  SimTime ready_at = 0;
  chain.Start([&](Result<SimTime> t) { ready_at = *t; });
  harness.sim.loop().RunUntilIdle();
  EXPECT_TRUE(chain.ready());
  EXPECT_TRUE(inner_ptr->ready());
  EXPECT_TRUE(outer_ptr->ready());
  EXPECT_GT(chain.OverheadFactor(), 2.2);  // 2.0 x 1.12

  Result<FetchReceipt> receipt = InternalError("pending");
  chain.Fetch("files.example.com", 0, 1'000'000, [&](Result<FetchReceipt> r) {
    receipt = std::move(r);
  });
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(receipt.ok());
  // Exit identity comes from the outer (Tor) stage's per-stream exit.
  EXPECT_EQ(
      receipt->observed_source,
      tor_network.relays()[outer_ptr->ExitIndexForDestination("files.example.com")].ip);
  EXPECT_TRUE(chain.ProtectsNetworkIdentity());
}

}  // namespace
}  // namespace nymix
