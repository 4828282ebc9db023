// Tests for the §4.1 DNS path, the §3.4 memory-remanence model, and the
// fingerprint-surprisal metric.
#include <gtest/gtest.h>

#include "src/core/metrics.h"
#include "src/core/testbed.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- DnsProxy

TEST(DnsProxyTest, TransportSelectionMatchesPaper) {
  // §4.1: Tor has a built-in DNS server; Dissent supports UDP; others need
  // UDP->TCP conversion.
  EXPECT_EQ(DnsProxy::TransportFor(AnonymizerKind::kTor),
            DnsProxy::Transport::kAnonymizerNative);
  EXPECT_EQ(DnsProxy::TransportFor(AnonymizerKind::kDissent),
            DnsProxy::Transport::kUdpProxy);
  EXPECT_EQ(DnsProxy::TransportFor(AnonymizerKind::kIncognito),
            DnsProxy::Transport::kUdpProxy);
  EXPECT_EQ(DnsProxy::TransportFor(AnonymizerKind::kSweet),
            DnsProxy::Transport::kUdpToTcpConversion);
  EXPECT_EQ(DnsProxy::TransportFor(AnonymizerKind::kChained),
            DnsProxy::Transport::kUdpToTcpConversion);
}

TEST(DnsProxyTest, ResolvesThroughNymAndCaches) {
  Testbed bed(1);
  Nym* nym = bed.CreateNymBlocking("resolver");
  ASSERT_NE(nym->dns(), nullptr);
  EXPECT_EQ(nym->dns()->transport(), DnsProxy::Transport::kAnonymizerNative);

  Result<Ipv4Address> first = InternalError("pending");
  bool done = false;
  SimTime t0 = bed.sim().now();
  nym->dns()->Resolve("twitter.com", [&](Result<Ipv4Address> r) {
    first = std::move(r);
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  ASSERT_TRUE(first.ok());
  SimDuration cold_latency = bed.sim().now() - t0;
  EXPECT_GT(cold_latency, Millis(100));

  // Second query: answered from cache, near-instant, same answer.
  done = false;
  Result<Ipv4Address> second = InternalError("pending");
  t0 = bed.sim().now();
  nym->dns()->Resolve("twitter.com", [&](Result<Ipv4Address> r) {
    second = std::move(r);
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_LT(bed.sim().now() - t0, Millis(1));
  EXPECT_EQ(nym->dns()->queries(), 2u);
  EXPECT_EQ(nym->dns()->cache_hits(), 1u);
  EXPECT_EQ(nym->dns()->direct_leaks(), 0u);
}

TEST(DnsProxyTest, NxdomainPropagatesAndIsNotCached) {
  Testbed bed(2);
  Nym* nym = bed.CreateNymBlocking("resolver");
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool done = false;
    nym->dns()->Resolve("no-such-host.example", [&](Result<Ipv4Address> r) {
      EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
      done = true;
    });
    bed.sim().RunUntil([&] { return done; });
  }
  EXPECT_EQ(nym->dns()->cache_hits(), 0u);
}

TEST(DnsProxyTest, ConversionPathCountsAndCostsMore) {
  Testbed bed(3);
  NymManager::CreateOptions options;
  options.anonymizer = AnonymizerKind::kSweet;
  Nym* sweet_nym = bed.CreateNymBlocking("sweet", options);
  EXPECT_EQ(sweet_nym->dns()->transport(), DnsProxy::Transport::kUdpToTcpConversion);

  SimTime t0 = bed.sim().now();
  bool done = false;
  sweet_nym->dns()->Resolve("bbc.co.uk", [&](Result<Ipv4Address> r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  SimDuration conversion_latency = bed.sim().now() - t0;
  EXPECT_EQ(sweet_nym->dns()->conversions(), 1u);

  Nym* tor_nym = bed.CreateNymBlocking("tor");
  t0 = bed.sim().now();
  done = false;
  tor_nym->dns()->Resolve("bbc.co.uk", [&](Result<Ipv4Address>) { done = true; });
  bed.sim().RunUntil([&] { return done; });
  EXPECT_LT(bed.sim().now() - t0, conversion_latency);
  EXPECT_EQ(tor_nym->dns()->conversions(), 0u);
}

TEST(DnsProxyTest, RefusesWhenAnonymizerNotReady) {
  // A proxy must fail closed, never fall back to a leaking direct query.
  Simulation sim(4);
  Link* uplink = sim.CreateLink("uplink", Millis(1), 10'000'000);
  sim.internet().AttachUplink(uplink);
  ClientAttachment attachment;
  attachment.sim = &sim;
  attachment.vm_uplink = uplink;
  attachment.client_links = {uplink};
  IncognitoVpn vpn(attachment);  // never Start()ed
  DnsProxy proxy(sim, &vpn, DnsProxy::Transport::kUdpProxy);
  bool done = false;
  proxy.Resolve("x.example", [&](Result<Ipv4Address> r) {
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    done = true;
  });
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------- Remanence

TEST(RemanenceTest, SecureWipeLeavesNothingForColdBoot) {
  Testbed bed(5);
  Nym* nym = bed.CreateNymBlocking("wiped");
  ASSERT_TRUE(bed.VisitBlocking(nym, bed.sites().ByName("Gmail")).ok());
  ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
  // A live-confiscation adversary scanning free host RAM finds nothing.
  EXPECT_EQ(bed.host().ColdBootScanBytes(), 0u);
}

TEST(RemanenceTest, ConventionalShutdownLeavesResidue) {
  // Counterfactual: destroying VMs without the wipe (what non-Nymix
  // hypervisors do) leaves the guest's dirty pages scannable — the Dunn
  // et al. remanence the paper cites.
  Simulation sim(6);
  HostMachine host(sim);
  auto image = BaseImage::CreateDistribution("nymix", 42, 64 * kMiB);
  auto vm = host.CreateVm(VmConfig::AnonVm("leaky"), image, nullptr);
  ASSERT_TRUE(vm.ok());
  (*vm)->Boot(nullptr);
  sim.loop().RunUntilIdle();
  ASSERT_TRUE((*vm)->disk().WriteFile("/home/user/secret", Blob::Synthetic(4 * kMiB, 1)).ok());
  uint64_t dirty_bytes = (*vm)->memory().unique_pages() * kPageSize;
  ASSERT_TRUE(host.DestroyVm(*vm, /*secure_wipe=*/false).ok());
  EXPECT_EQ(host.ColdBootScanBytes(), dirty_bytes + 4 * kMiB);
}

// ---------------------------------------------------------------- Guard lifetime

TEST(GuardLifetimeTest, ExpiredGuardIsRedrawnFreshOneKept) {
  Testbed bed(20);
  ASSERT_TRUE(bed.cloud().CreateAccount("u", "cp").ok());
  Nym* nym = bed.CreateNymBlocking("aging");
  auto* tor = static_cast<TorClient*>(nym->anonymizer());
  size_t original_guard = *tor->entry_guard_index();
  ASSERT_TRUE(bed.SaveBlocking(nym, "u", "cp", "np").ok());
  ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());

  // Restore well within the lifetime: same guard.
  auto soon = bed.LoadBlocking("aging", "u", "cp", "np");
  ASSERT_TRUE(soon.ok());
  auto* tor_soon = static_cast<TorClient*>((*soon)->anonymizer());
  EXPECT_EQ(*tor_soon->entry_guard_index(), original_guard);
  ASSERT_TRUE(bed.SaveBlocking(*soon, "u", "cp", "np").ok());
  ASSERT_TRUE(bed.manager().TerminateNym(*soon).ok());

  // Jump virtual time past the ~3-month rotation period ([14, 20]).
  bed.sim().RunFor(Seconds(100LL * 24 * 3600));
  auto later = bed.LoadBlocking("aging", "u", "cp", "np");
  ASSERT_TRUE(later.ok());
  auto* tor_later = static_cast<TorClient*>((*later)->anonymizer());
  // The expired guard was re-drawn at bootstrap. (With 4 guards the fresh
  // draw may coincide; assert the mechanism via the chosen-at timestamp:
  // a kept guard would carry the old timestamp through SaveState.)
  MemFs state;
  ASSERT_TRUE(tor_later->SaveState(state).ok());
  std::string text =
      StringFromBytes(state.ReadFile("/var/lib/tor/state")->Materialize());
  size_t since_pos = text.find("guard-since=");
  ASSERT_NE(since_pos, std::string::npos);
  long long chosen_at = std::atoll(text.c_str() + since_pos + 12);
  EXPECT_GT(chosen_at, Seconds(100LL * 24 * 3600));
}

// ---------------------------------------------------------------- COW persistence

TEST(CowPersistenceTest, SnapshotRestoresOntoUnchangedDisk) {
  Testbed bed(21);
  InstalledOsNymService service(bed.manager());
  auto media = MakeInstalledOsMedia(InstalledOsKind::kWindows7, 9);
  Nym* nym = nullptr;
  bool done = false;
  service.BootAsNym(media, [&](Result<Nym*> n, InstalledOsReport) {
    nym = *n;
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  ASSERT_TRUE(nym->anon_vm()
                  ->disk()
                  .WriteFile("/Users/user/draft.txt", Blob::FromString("wip"))
                  .ok());
  auto snapshot = SaveCowState(*nym, media);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());

  // Boot again (no repair needed) and restore the COW state.
  done = false;
  service.BootAsNym(media, [&](Result<Nym*> n, InstalledOsReport) {
    nym = *n;
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  EXPECT_FALSE(nym->anon_vm()->disk().fs().writable().Exists("/Users/user/draft.txt"));
  ASSERT_TRUE(RestoreCowState(*nym, media, *snapshot).ok());
  auto draft = nym->anon_vm()->disk().fs().ReadFile("/Users/user/draft.txt");
  ASSERT_TRUE(draft.ok());
  EXPECT_EQ(StringFromBytes(draft->Materialize()), "wip");
}

TEST(CowPersistenceTest, RefusesRestoreOntoChangedDisk) {
  Testbed bed(22);
  InstalledOsNymService service(bed.manager());
  auto media = MakeInstalledOsMedia(InstalledOsKind::kWindows7, 9);
  Nym* nym = nullptr;
  bool done = false;
  service.BootAsNym(media, [&](Result<Nym*> n, InstalledOsReport) {
    nym = *n;
    done = true;
  });
  bed.sim().RunUntil([&] { return done; });
  auto snapshot = SaveCowState(*nym, media);
  ASSERT_TRUE(snapshot.ok());
  // The user boots Windows on bare metal and edits a document (§3.7).
  ASSERT_TRUE(
      media.disk->WriteFile("/Users/user/Documents/new.doc", Blob::FromString("x")).ok());
  EXPECT_EQ(RestoreCowState(*nym, media, *snapshot).code(), StatusCode::kDataLoss);
}

TEST(CowPersistenceTest, FingerprintSensitivity) {
  auto a = MakeInstalledOsMedia(InstalledOsKind::kWindows7, 1);
  auto b = MakeInstalledOsMedia(InstalledOsKind::kWindows7, 1);
  EXPECT_EQ(DiskFingerprint(*a.disk), DiskFingerprint(*b.disk));
  ASSERT_TRUE(b.disk->WriteFile("/new-file", Blob::FromString("x")).ok());
  EXPECT_NE(DiskFingerprint(*a.disk), DiskFingerprint(*b.disk));
  ASSERT_TRUE(b.disk->Unlink("/new-file").ok());
  EXPECT_EQ(DiskFingerprint(*a.disk), DiskFingerprint(*b.disk));
}

// ---------------------------------------------------------------- Lifecycle fuzz

TEST(LifecycleFuzzTest, RandomOperationSequencesKeepInvariants) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Testbed bed(seed * 1000);
    ASSERT_TRUE(bed.cloud().CreateAccount("fuzz", "cp").ok());
    Prng prng(seed);
    std::vector<Nym*> live;
    std::set<std::string> saved;
    int created = 0;

    for (int step = 0; step < 25; ++step) {
      switch (prng.NextBelow(5)) {
        case 0: {  // create
          if (live.size() >= 6) {
            break;
          }
          Nym* nym = bed.CreateNymBlocking("fuzz-" + std::to_string(created++));
          live.push_back(nym);
          break;
        }
        case 1: {  // browse
          if (live.empty()) {
            break;
          }
          Nym* nym = live[prng.NextBelow(live.size())];
          auto sites = bed.sites().all();
          ASSERT_TRUE(bed.VisitBlocking(nym, *sites[prng.NextBelow(sites.size())]).ok());
          break;
        }
        case 2: {  // save
          if (live.empty()) {
            break;
          }
          Nym* nym = live[prng.NextBelow(live.size())];
          auto receipt = bed.SaveBlocking(nym, "fuzz", "cp", "np");
          ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
          saved.insert(nym->name());
          break;
        }
        case 3: {  // terminate
          if (live.empty()) {
            break;
          }
          size_t index = prng.NextBelow(live.size());
          ASSERT_TRUE(bed.manager().TerminateNym(live[index]).ok());
          live.erase(live.begin() + static_cast<long>(index));
          break;
        }
        case 4: {  // load a previously saved nym (if not currently live)
          if (saved.empty()) {
            break;
          }
          auto it = saved.begin();
          std::advance(it, prng.NextBelow(saved.size()));
          if (bed.manager().FindNym(*it) != nullptr) {
            break;
          }
          auto restored = bed.LoadBlocking(*it, "fuzz", "cp", "np");
          ASSERT_TRUE(restored.ok()) << restored.status().ToString();
          live.push_back(*restored);
          break;
        }
      }
      // Invariants after every step.
      ASSERT_EQ(bed.manager().nyms().size(), live.size());
      ASSERT_EQ(bed.host().vm_count(), 2 * live.size());
      ASSERT_LE(bed.host().UsedMemoryBytes(), kHostRamBytes);
    }
    // Drain and verify full cleanup.
    for (Nym* nym : live) {
      ASSERT_TRUE(bed.manager().TerminateNym(nym).ok());
    }
    bed.host().ksm().ScanNow();
    EXPECT_EQ(bed.host().UsedMemoryBytes(), kHostBaselineBytes);
    EXPECT_EQ(bed.host().ColdBootScanBytes(), 0u);
  }
}

// ---------------------------------------------------------------- Fingerprint bits

TEST(FingerprintBitsTest, HomogeneousPopulationCarriesZeroBits) {
  Testbed bed(7);
  Nym* a = bed.CreateNymBlocking("a");
  Nym* b = bed.CreateNymBlocking("b");
  std::vector<FingerprintSurface> population = {FingerprintOf(*a->anon_vm()),
                                                FingerprintOf(*b->anon_vm())};
  EXPECT_DOUBLE_EQ(FingerprintSurprisalBits(population, population[0]), 0.0);
}

TEST(FingerprintBitsTest, DiversePopulationCarriesManyBits) {
  Prng prng(8);
  auto population = SyntheticNativePopulation(4096, prng);
  double bits = FingerprintSurprisalBits(population, population[17]);
  // Random MACs make most fingerprints unique: ~log2(4096) = 12 bits.
  EXPECT_GT(bits, 10.0);
  EXPECT_LE(bits, 13.0);
}

TEST(FingerprintBitsTest, UnknownFingerprintMaximallySurprising) {
  Prng prng(9);
  auto population = SyntheticNativePopulation(100, prng);
  FingerprintSurface alien;
  alien.cpu_model = "Quantum9000";
  alien.resolution = "640x480";
  alien.mac = "de:ad:be:ef:00:01";
  alien.visible_cpus = 128;
  EXPECT_GT(FingerprintSurprisalBits(population, alien), 6.0);
  EXPECT_DOUBLE_EQ(FingerprintSurprisalBits({}, alien), 0.0);
}

}  // namespace
}  // namespace nymix
