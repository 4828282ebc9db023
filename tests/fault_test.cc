// Fault injection and failure recovery: seeded fault schedules, retry and
// backoff math, exactly-once completion guards, per-reason link drops, flow
// stall/abort semantics, Tor circuit retry + guard failover, and VM
// crash -> NymManager recovery. The overarching contract: every fault is
// seeded (identical runs inject identically), and every failure surfaces as
// a Status — nothing hangs, nothing completes silently twice.
#include <gtest/gtest.h>

#include "src/core/testbed.h"
#include "src/net/nat.h"
#include "src/util/fault.h"

namespace nymix {
namespace {

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjectorTest, UnconfiguredPointNeverFires) {
  Simulation sim(1);
  FaultInjector injector(sim.loop(), 42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.Roll("never.configured"));
  }
  EXPECT_EQ(injector.rolls("never.configured"), 0u);
  EXPECT_EQ(injector.total_triggers(), 0u);
  EXPECT_FALSE(injector.any_configured());
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  Simulation sim_a(1);
  Simulation sim_b(1);
  FaultInjector a(sim_a.loop(), 99);
  FaultInjector b(sim_b.loop(), 99);
  FaultInjector c(sim_b.loop(), 100);
  for (FaultInjector* injector : {&a, &b, &c}) {
    injector->ConfigureProbability("link.loss", 0.3);
    injector->ConfigureProbability("relay.crash", 0.1);
  }
  int differences_from_c = 0;
  for (int i = 0; i < 200; ++i) {
    const bool roll_a = a.Roll("link.loss");
    EXPECT_EQ(roll_a, b.Roll("link.loss")) << "roll " << i;
    EXPECT_EQ(a.Roll("relay.crash"), b.Roll("relay.crash")) << "roll " << i;
    if (roll_a != c.Roll("link.loss")) {
      ++differences_from_c;
    }
  }
  EXPECT_EQ(a.triggers("link.loss"), b.triggers("link.loss"));
  EXPECT_EQ(a.triggers("relay.crash"), b.triggers("relay.crash"));
  // ~30% hit rate over 200 rolls: plenty of triggers, and a different seed
  // must disagree somewhere.
  EXPECT_GT(a.triggers("link.loss"), 20u);
  EXPECT_GT(differences_from_c, 0);
}

TEST(FaultInjectorTest, PointStreamsAreIndependentOfRegistrationOrder) {
  Simulation sim(1);
  FaultInjector forward(sim.loop(), 7);
  forward.ConfigureProbability("alpha", 0.5);
  forward.ConfigureProbability("beta", 0.5);
  FaultInjector reversed(sim.loop(), 7);
  reversed.ConfigureProbability("beta", 0.5);
  reversed.ConfigureProbability("alpha", 0.5);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(forward.Roll("alpha"), reversed.Roll("alpha"));
    EXPECT_EQ(forward.Roll("beta"), reversed.Roll("beta"));
  }
}

TEST(FaultInjectorTest, MaxTriggersHealsThePoint) {
  Simulation sim(1);
  FaultInjector injector(sim.loop(), 5);
  FaultPointConfig config;
  config.probability = 1.0;
  config.max_triggers = 3;
  injector.Configure("flaky.disk", config);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.Roll("flaky.disk")) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.triggers("flaky.disk"), 3u);
  EXPECT_EQ(injector.rolls("flaky.disk"), 10u);
}

TEST(FaultInjectorTest, ActiveWindowGatesInjection) {
  Simulation sim(1);
  FaultPointConfig config;
  config.probability = 1.0;
  config.active_from = Seconds(1);
  config.active_until = Seconds(2);
  sim.faults().Configure("window", config);
  EXPECT_FALSE(sim.faults().Roll("window"));  // t=0, before the window
  sim.RunFor(Millis(1500));
  EXPECT_TRUE(sim.faults().Roll("window"));
  sim.RunFor(Seconds(1));
  EXPECT_FALSE(sim.faults().Roll("window"));  // t=2.5s, after the window
}

TEST(FaultInjectorTest, ScheduledFaultFiresAtExactVirtualTime) {
  Simulation sim(1);
  SimTime fired_at = 0;
  sim.faults().At(Millis(750), "relay-crash", [&] { fired_at = sim.now(); });
  sim.loop().RunUntilIdle();
  EXPECT_EQ(fired_at, Millis(750));
  EXPECT_EQ(sim.faults().total_triggers(), 1u);
}

TEST(FaultInjectorTest, SeedForIsStableAndNameDependent) {
  Simulation sim(1);
  FaultInjector a(sim.loop(), 1234);
  FaultInjector b(sim.loop(), 1234);
  EXPECT_EQ(a.SeedFor("net.flows"), b.SeedFor("net.flows"));
  EXPECT_NE(a.SeedFor("net.flows"), a.SeedFor("net.uplink"));
  FaultInjector other(sim.loop(), 1235);
  EXPECT_NE(a.SeedFor("net.flows"), other.SeedFor("net.flows"));
}

// ----------------------------------------------------------------- Backoff

TEST(BackoffTest, ExponentialSequenceThenExhausted) {
  BackoffPolicy policy;
  policy.initial_delay = Millis(500);
  policy.multiplier = 2.0;
  policy.max_delay = Seconds(30);
  policy.max_attempts = 4;
  Backoff backoff(policy, /*seed=*/1);

  auto first = backoff.NextDelay();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, Millis(500));
  auto second = backoff.NextDelay();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, Seconds(1));
  auto third = backoff.NextDelay();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, Seconds(2));
  EXPECT_TRUE(backoff.exhausted());

  auto fourth = backoff.NextDelay();
  ASSERT_FALSE(fourth.ok());
  EXPECT_EQ(fourth.status().code(), StatusCode::kResourceExhausted);

  backoff.Reset();
  EXPECT_FALSE(backoff.exhausted());
  auto again = backoff.NextDelay();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, Millis(500));
}

TEST(BackoffTest, MaxDelayClampsGrowth) {
  BackoffPolicy policy;
  policy.initial_delay = Seconds(10);
  policy.multiplier = 10.0;
  policy.max_delay = Seconds(15);
  policy.max_attempts = 4;
  Backoff backoff(policy, 1);
  EXPECT_EQ(*backoff.NextDelay(), Seconds(10));
  EXPECT_EQ(*backoff.NextDelay(), Seconds(15));
  EXPECT_EQ(*backoff.NextDelay(), Seconds(15));
}

TEST(BackoffTest, JitterIsSeededAndBounded) {
  BackoffPolicy policy;
  policy.initial_delay = Seconds(1);
  policy.multiplier = 2.0;
  policy.max_attempts = 6;
  policy.jitter = 0.5;
  Backoff a(policy, 77);
  Backoff b(policy, 77);
  Backoff c(policy, 78);
  bool c_differs = false;
  SimDuration nominal = Seconds(1);
  for (int i = 0; i < 5; ++i) {
    auto delay_a = a.NextDelay();
    auto delay_b = b.NextDelay();
    auto delay_c = c.NextDelay();
    ASSERT_TRUE(delay_a.ok() && delay_b.ok() && delay_c.ok());
    EXPECT_EQ(*delay_a, *delay_b) << "attempt " << i;
    c_differs = c_differs || *delay_a != *delay_c;
    EXPECT_GE(*delay_a, nominal / 2);
    EXPECT_LE(*delay_a, nominal * 3 / 2);
    nominal *= 2;
  }
  EXPECT_TRUE(c_differs);
}

// ------------------------------------------------------------- OnceCallback

TEST(OnceCallbackTest, FiresExactlyOnce) {
  int calls = 0;
  Status seen = OkStatus();
  OnceCallback<Status> once([&](Status status) {
    ++calls;
    seen = std::move(status);
  });
  EXPECT_TRUE(static_cast<bool>(once));
  once(UnavailableError("boom"));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(static_cast<bool>(once));
  EXPECT_TRUE(once.fired());
}

TEST(OnceCallbackTest, DroppingWithoutFiringDeliversCancelled) {
  Status seen = OkStatus();
  int calls = 0;
  {
    OnceCallback<Status> once([&](Status status) {
      ++calls;
      seen = std::move(status);
    });
    // Copies share one fire state; dropping every copy fires the guard.
    OnceCallback<Status> copy = once;
    (void)copy;
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.code(), StatusCode::kCancelled);
}

TEST(OnceCallbackTest, ResultValuedDropDeliversStatus) {
  Result<SimTime> seen = InternalError("pending");
  { OnceCallback<Result<SimTime>> once([&](Result<SimTime> r) { seen = std::move(r); }); }
  EXPECT_FALSE(seen.ok());
  EXPECT_EQ(seen.status().code(), StatusCode::kCancelled);
}

TEST(OnceCallbackTest, DismissSuppressesTheDropStatus) {
  int calls = 0;
  {
    OnceCallback<Status> once([&](Status) { ++calls; });
    once.Dismiss();
  }
  EXPECT_EQ(calls, 0);
}

TEST(OnceCallbackTest, NullCallbackIsInert) {
  OnceCallback<Status> once{std::function<void(Status)>()};
  EXPECT_FALSE(static_cast<bool>(once));
  once(OkStatus());  // must not crash
}

// --------------------------------------------------------- RetryWithBackoff

TEST(RetryTest, SucceedsAfterTransientFailures) {
  Simulation sim(1);
  BackoffPolicy policy;
  policy.initial_delay = Millis(500);
  policy.max_attempts = 5;
  int attempts = 0;
  Status final = UnavailableError("pending");
  RetryWithBackoff(
      sim.loop(), policy, /*seed=*/1, "test.op",
      [&](std::function<void(Status)> finish) {
        ++attempts;
        finish(attempts < 3 ? UnavailableError("transient") : OkStatus());
      },
      [&](Status status) { final = std::move(status); });
  sim.loop().RunUntilIdle();
  EXPECT_TRUE(final.ok());
  EXPECT_EQ(attempts, 3);
  // Two backoff waits: 500 ms + 1 s of virtual time.
  EXPECT_EQ(sim.now(), Millis(1500));
}

TEST(RetryTest, ExhaustionAnnotatesTheFinalStatus) {
  Simulation sim(1);
  BackoffPolicy policy;
  policy.initial_delay = Millis(100);
  policy.max_attempts = 3;
  int attempts = 0;
  Status final = OkStatus();
  RetryWithBackoff(
      sim.loop(), policy, 1, "test.op",
      [&](std::function<void(Status)> finish) {
        ++attempts;
        finish(UnavailableError("server down"));
      },
      [&](Status status) { final = std::move(status); });
  sim.loop().RunUntilIdle();
  EXPECT_EQ(attempts, 3);
  // Exhaustion is reported as kResourceExhausted carrying both the attempt
  // budget and the last underlying error, so the root cause survives into
  // logs and shrunk fuzz repros.
  EXPECT_EQ(final.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(final.message().find("after 3 attempts"), std::string::npos) << final.ToString();
  EXPECT_NE(final.message().find("UNAVAILABLE: server down"), std::string::npos)
      << final.ToString();
}

TEST(RetryTest, DroppedAttemptCompletionCountsAsFailure) {
  Simulation sim(1);
  BackoffPolicy policy;
  policy.initial_delay = Millis(100);
  policy.max_attempts = 3;
  int attempts = 0;
  Status final = UnavailableError("pending");
  RetryWithBackoff(
      sim.loop(), policy, 1, "test.op",
      [&](std::function<void(Status)> finish) {
        ++attempts;
        if (attempts == 1) {
          return;  // drop the completion: the guard reports kCancelled
        }
        finish(OkStatus());
      },
      [&](Status status) { final = std::move(status); });
  sim.loop().RunUntilIdle();
  EXPECT_TRUE(final.ok());
  EXPECT_EQ(attempts, 2);
}

// -------------------------------------------------------------- Link faults

class CountingSink : public PacketSink {
 public:
  void OnPacket(const Packet&, Link&, bool) override { ++received; }
  int received = 0;
};

TEST(LinkFaultTest, PerReasonDropAccounting) {
  Simulation sim(1);
  CountingSink sink;

  // kNoSink: delivery finds nobody attached.
  Link* orphan = sim.CreateLink("orphan", Millis(1), 1'000'000);
  orphan->SendFromA(Packet{});
  sim.loop().RunUntilIdle();
  EXPECT_EQ(orphan->packets_dropped(LinkDropReason::kNoSink), 1u);

  // kDown: an administratively-down link drops at send time.
  Link* down = sim.CreateLink("down", Millis(1), 1'000'000);
  down->AttachB(&sink);
  down->SetDown(true);
  down->SendFromA(Packet{});
  sim.loop().RunUntilIdle();
  EXPECT_EQ(down->packets_dropped(LinkDropReason::kDown), 1u);
  down->SetDown(false);
  down->SendFromA(Packet{});
  sim.loop().RunUntilIdle();
  EXPECT_EQ(sink.received, 1);

  // kFault: seeded loss at probability 1 drops everything.
  Link* lossy = sim.CreateLink("lossy", Millis(1), 1'000'000);
  lossy->AttachB(&sink);
  LinkFaultProfile all_loss;
  all_loss.loss_probability = 1.0;
  lossy->SetFaultProfile(all_loss, sim.faults().SeedFor("lossy"));
  for (int i = 0; i < 5; ++i) {
    lossy->SendFromA(Packet{});
  }
  sim.loop().RunUntilIdle();
  EXPECT_EQ(lossy->packets_dropped(LinkDropReason::kFault), 5u);

  // kQueueOverflow: a bounded queue sheds the burst beyond max_in_flight.
  Link* bounded = sim.CreateLink("bounded", Millis(1), 1'000'000);
  bounded->AttachB(&sink);
  LinkFaultProfile queue;
  queue.max_in_flight = 1;
  bounded->SetFaultProfile(queue, sim.faults().SeedFor("bounded"));
  bounded->SendFromA(Packet{});
  bounded->SendFromA(Packet{});
  bounded->SendFromA(Packet{});
  sim.loop().RunUntilIdle();
  EXPECT_EQ(bounded->packets_dropped(LinkDropReason::kQueueOverflow), 2u);

  // The back-compat total is the sum over reasons.
  EXPECT_EQ(bounded->packets_dropped(), 2u);
  EXPECT_EQ(lossy->packets_dropped(), 5u);
}

TEST(LinkFaultTest, SeededLossIsReproducible) {
  auto run = [](uint64_t seed) {
    Simulation sim(1);
    CountingSink sink;
    Link* link = sim.CreateLink("flaky", Millis(1), 10'000'000);
    link->AttachB(&sink);
    LinkFaultProfile profile;
    profile.loss_probability = 0.4;
    link->SetFaultProfile(profile, seed);
    for (int i = 0; i < 200; ++i) {
      link->SendFromA(Packet{});
    }
    sim.loop().RunUntilIdle();
    return std::pair<int, uint64_t>{sink.received, link->packets_dropped(LinkDropReason::kFault)};
  };
  auto first = run(42);
  auto second = run(42);
  auto other = run(43);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
  EXPECT_GT(first.second, 40u);   // ~80 of 200 lost
  EXPECT_GT(first.first, 80);     // ~120 delivered
}

// -------------------------------------------------------------- Flow faults

TEST(FlowFaultTest, StalledFlowFailsWithStatusInsteadOfHanging) {
  Simulation sim(1);
  Link* link = sim.CreateLink("path", Millis(5), 1'000'000);
  link->SetDown(true);
  Result<SimTime> outcome = InternalError("pending");
  bool done = false;
  sim.flows().StartFlow(Route::Through({link}), 500'000, 1.0, /*stall_timeout=*/Seconds(2),
                        [&](Result<SimTime> finished) {
                          outcome = std::move(finished);
                          done = true;
                        });
  sim.loop().RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  // Stall clock starts once the flow would have begun (after the setup RTT).
  EXPECT_EQ(sim.now(), Millis(10) + Seconds(2));
}

TEST(FlowFaultTest, StalledFlowRecoversWhenRouteComesBack) {
  Simulation sim(1);
  Link* link = sim.CreateLink("path", Millis(5), 8'000'000);
  link->SetDown(true);
  Result<SimTime> outcome = UnavailableError("pending");
  sim.flows().StartFlow(Route::Through({link}), 100'000, 1.0, /*stall_timeout=*/Seconds(5),
                        [&](Result<SimTime> finished) { outcome = std::move(finished); });
  // The route flaps back up before the stall deadline; the deadline event
  // notices and the flow rejoins the competition instead of dying.
  sim.faults().At(Seconds(1), "link-up", [&] { link->SetDown(false); });
  sim.loop().RunUntilIdle();
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(*outcome, Seconds(5));  // finished after the deadline re-check
}

TEST(FlowFaultTest, LossDoomsFlowsDeterministically) {
  Simulation sim(1);
  Link* link = sim.CreateLink("lossy", Millis(5), 8'000'000);
  LinkFaultProfile profile;
  profile.loss_probability = 0.3;  // x4 abort multiplier => certain abort
  link->SetFaultProfile(profile, sim.faults().SeedFor("lossy"));
  Result<SimTime> outcome = InternalError("pending");
  bool done = false;
  sim.flows().StartFlow(Route::Through({link}), 1'000'000, 1.0, /*stall_timeout=*/0,
                        [&](Result<SimTime> finished) {
                          outcome = std::move(finished);
                          done = true;
                        });
  sim.loop().RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  // The flow died at the end of its setup RTT instead of hanging the loop.
  EXPECT_EQ(sim.now(), Millis(10));
  EXPECT_EQ(sim.flows().active_flows(), 0u);
}

TEST(FlowFaultTest, CancelDeliversCancelledStatus) {
  Simulation sim(1);
  Link* link = sim.CreateLink("path", Millis(5), 8'000'000);
  Result<SimTime> outcome = InternalError("pending");
  FlowId id = sim.flows().StartFlow(Route::Through({link}), 1'000'000, 1.0, /*stall_timeout=*/0,
                                    [&](Result<SimTime> finished) {
                                      outcome = std::move(finished);
                                    });
  sim.RunFor(Millis(50));
  EXPECT_TRUE(sim.flows().CancelFlow(id));
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
}

// ------------------------------------------------------------ Tor robustness

// The anon_test harness, reused: one vm uplink behind a host NAT and the
// 10 Mbit host uplink.
struct TorFaultHarness {
  explicit TorFaultHarness(uint64_t seed = 1)
      : sim(seed),
        uplink(sim.CreateLink("host-uplink", Millis(40), 10'000'000)),
        public_ip(sim.internet().AllocatePublicIp()),
        router("host-router", uplink, public_ip),
        vm_uplink(sim.CreateLink("vm-uplink", Micros(100), 1'000'000'000)),
        network(sim) {
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
  TorNetwork network;
  NullServer server;
  Link* server_link;
  Ipv4Address server_ip;
  std::unique_ptr<AnonymizerPortAdapter> adapter;
};

TEST(TorFaultTest, CrashedRelayVanishesUntilRestart) {
  TorFaultHarness harness;
  EXPECT_TRUE(harness.network.RelayUp(0));
  harness.network.CrashRelay(0);
  EXPECT_FALSE(harness.network.RelayUp(0));
  EXPECT_TRUE(harness.network.RelayAccessLink(0)->is_down());
  EXPECT_EQ(harness.sim.internet().FindHost(harness.network.relays()[0].ip), nullptr);
  harness.network.RestartRelay(0);
  EXPECT_TRUE(harness.network.RelayUp(0));
  EXPECT_FALSE(harness.network.RelayAccessLink(0)->is_down());
}

TEST(TorFaultTest, DeadGuardTimesOutThenFailsOver) {
  TorFaultHarness harness;
  TorClient client(harness.Attachment(), harness.network, /*seed=*/7);
  harness.AttachGuest(&client);
  // Seeded guard choice (§3.5): guard_seed 0 derives guard index 0. Crash
  // it before bootstrap so every CREATE2 cell dies on the floor.
  client.SeedGuardSelection(0);
  harness.network.CrashRelay(0);

  Result<SimTime> ready = UnavailableError("pending");
  client.Start([&](Result<SimTime> r) { ready = std::move(r); });
  harness.sim.loop().RunUntilIdle();

  ASSERT_TRUE(ready.ok()) << ready.status().ToString();
  EXPECT_TRUE(client.ready());
  // Two timed-out attempts hit the guard-failure threshold, the dead guard
  // was marked failed, and the re-derived guard finished the build.
  ASSERT_TRUE(client.entry_guard_index().has_value());
  EXPECT_NE(*client.entry_guard_index(), 0u);
  EXPECT_EQ(client.failed_guards().count(0), 1u);
  // Failure detection cost real (virtual) time: two 10 s timeouts.
  EXPECT_GT(ToSeconds(*ready), 20.0);
}

TEST(TorFaultTest, GuardFailoverIsDeterministic) {
  auto run = [](uint64_t sim_seed) {
    TorFaultHarness harness(sim_seed);
    TorClient client(harness.Attachment(), harness.network, /*seed=*/7);
    harness.AttachGuest(&client);
    client.SeedGuardSelection(0);
    harness.network.CrashRelay(0);
    Result<SimTime> ready = UnavailableError("pending");
    client.Start([&](Result<SimTime> r) { ready = std::move(r); });
    harness.sim.loop().RunUntilIdle();
    NYMIX_CHECK(ready.ok());
    return std::tuple<size_t, SimTime, std::set<size_t>>{*client.entry_guard_index(), *ready,
                                                         client.failed_guards()};
  };
  EXPECT_EQ(run(3), run(3));
}

TEST(TorFaultTest, AllGuardsDeadAbandonsWithStatus) {
  // Stock settings: a 10 s build timeout, retried after 500 ms x2 backoff,
  // 4 attempts in all.
  TorFaultHarness harness;
  TorClient client(harness.Attachment(), harness.network, /*seed=*/7);
  harness.AttachGuest(&client);
  for (size_t g : harness.network.GuardIndices()) {
    harness.network.CrashRelay(g);
  }
  Result<SimTime> ready = InternalError("pending");
  client.Start([&](Result<SimTime> r) { ready = std::move(r); });
  harness.sim.loop().RunUntilIdle();
  ASSERT_FALSE(ready.ok());
  EXPECT_EQ(ready.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(ready.status().message().find("abandoned after 4 attempts"), std::string::npos)
      << ready.status().ToString();
  // The last underlying error (the circuit-build timeout) rides along.
  EXPECT_NE(ready.status().message().find("DEADLINE_EXCEEDED"), std::string::npos)
      << ready.status().ToString();
  EXPECT_FALSE(client.ready());
}

TEST(TorFaultTest, NewIdentityCancelsInFlightBuildCleanly) {
  // Regression: NewIdentity during an in-flight circuit build used to race
  // the pending ready callback. The superseded build must observe
  // kCancelled — exactly once — and the new build must complete.
  TorFaultHarness harness;
  TorClient client(harness.Attachment(), harness.network, /*seed=*/7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(client.ready());

  int first_calls = 0;
  Status first_status = OkStatus();
  client.NewIdentity([&](Result<SimTime> r) {
    ++first_calls;
    first_status = r.status();
  });
  // Supersede immediately, while the first rebuild's CREATE2 is in flight.
  Result<SimTime> second = UnavailableError("pending");
  client.NewIdentity([&](Result<SimTime> r) { second = std::move(r); });
  harness.sim.loop().RunUntilIdle();

  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(first_status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(client.ready());
}

TEST(TorFaultTest, FetchRetriesOntoAFreshExitAfterExitCrash) {
  TorFaultHarness harness;
  TorClient client(harness.Attachment(), harness.network, /*seed=*/7);
  harness.AttachGuest(&client);
  client.Start(nullptr);
  harness.sim.loop().RunUntilIdle();
  ASSERT_TRUE(client.ready());

  // Bind the destination to an exit, then crash that exit: the first fetch
  // attempt stalls on the dead access link, fails, drops the binding, and
  // the retry re-rolls a live exit (stream isolation preserved).
  size_t doomed_exit = client.ExitIndexForDestination("files.example.com");
  harness.network.CrashRelay(doomed_exit);

  Result<FetchReceipt> receipt = UnavailableError("pending");
  SimTime start = harness.sim.now();
  client.Fetch("files.example.com", 2'000, 100'000,
               [&](Result<FetchReceipt> r) { receipt = std::move(r); });
  harness.sim.loop().RunUntilIdle();

  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  size_t new_exit = client.ExitIndexForDestination("files.example.com");
  EXPECT_NE(new_exit, doomed_exit);
  EXPECT_EQ(receipt->observed_source, harness.network.relays()[new_exit].ip);
  // The failure path cost at least the fetch stall timeout (30 s default).
  EXPECT_GT(ToSeconds(harness.sim.now() - start), 30.0);
}

// ------------------------------------------------------- VM crash recovery

TEST(NymRecoveryTest, CrashThenRecoverRestoresStateAndGuard) {
  Testbed bed(/*seed=*/11);
  NymManager::CreateOptions options;
  options.guard_seed = 1234;  // §3.5 location-derived guard
  Nym* nym = bed.CreateNymBlocking("whistleblower", options);
  auto* tor = static_cast<TorClient*>(nym->anonymizer());
  ASSERT_TRUE(tor->entry_guard_index().has_value());
  size_t original_guard = *tor->entry_guard_index();

  // User data lands in the AnonVM's writable layer; the anonymizer's state
  // file is checkpointed into the CommVM layer (tor's periodic state sync).
  ASSERT_TRUE(nym->anon_vm()
                  ->disk()
                  .fs()
                  .writable_mutable()
                  .WriteFile("/home/user/draft.txt", Blob::FromString("leak notes"))
                  .ok());
  ASSERT_TRUE(bed.manager().CheckpointNym(*nym).ok());

  bed.manager().InjectCrash(*nym);
  EXPECT_EQ(nym->anon_vm()->state(), VmState::kCrashed);
  EXPECT_EQ(nym->comm_vm()->state(), VmState::kCrashed);

  auto recovered = bed.RecoverNymBlocking(nym);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Nym* fresh = *recovered;
  EXPECT_EQ(fresh->name(), "whistleblower");
  EXPECT_EQ(fresh->anon_vm()->state(), VmState::kRunning);
  EXPECT_EQ(fresh->comm_vm()->state(), VmState::kRunning);
  EXPECT_TRUE(fresh->anonymizer()->ready());

  // The writable-layer snapshot rode through the recovery.
  auto draft = fresh->anon_vm()->disk().fs().ReadFile("/home/user/draft.txt");
  ASSERT_TRUE(draft.ok());
  EXPECT_EQ(StringFromBytes(draft->Materialize()), "leak notes");

  // Guard persistence across the crash (§3.5): the restored client re-lands
  // on the same entry guard.
  auto* fresh_tor = static_cast<TorClient*>(fresh->anonymizer());
  ASSERT_TRUE(fresh_tor->entry_guard_index().has_value());
  EXPECT_EQ(*fresh_tor->entry_guard_index(), original_guard);
}

TEST(NymRecoveryTest, CrashLeavesGuestPagesForColdBootScan) {
  // A crash is the one teardown path where §3.4's secure wipe cannot run:
  // guest pages must remain in host RAM (the Dunn et al. remanence window).
  Testbed bed(12);
  Nym* nym = bed.CreateNymBlocking("victim");
  uint64_t unique_before = nym->anon_vm()->memory().unique_pages();
  ASSERT_GT(unique_before, 0u);
  bed.manager().InjectCrash(*nym);
  EXPECT_EQ(nym->anon_vm()->memory().unique_pages(), unique_before);
}

TEST(NymRecoveryTest, RecoverUnknownNymReturnsNotFound) {
  Testbed bed(13);
  Nym ghost("ghost", NymMode::kEphemeral, bed.sim());
  Result<Nym*> result = InternalError("pending");
  bool done = false;
  bed.manager().RecoverNym(&ghost, [&](Result<Nym*> r, NymStartupReport) {
    result = std::move(r);
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace nymix
