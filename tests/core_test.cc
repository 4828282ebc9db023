#include <gtest/gtest.h>

#include "src/core/installed_os.h"
#include "src/core/metrics.h"
#include "src/core/sanivm.h"
#include "src/core/validation.h"

namespace nymix {
namespace {

struct CoreRig {
  explicit CoreRig(uint64_t seed = 1)
      : sim(seed),
        host(sim),
        tor(sim),
        dissent(sim),
        image(BaseImage::CreateDistribution("nymix", 42, 64 * kMiB)),
        manager(host, image, &tor, &dissent),
        cloud(sim, "drop.example.com"),
        sites(sim, PaperWebsiteProfiles()) {}

  // Synchronous wrappers over the async manager API.
  Nym* CreateNymOrDie(const std::string& name, NymManager::CreateOptions options = {},
                      NymStartupReport* report_out = nullptr) {
    Nym* created = nullptr;
    bool done = false;
    manager.CreateNym(name, options, [&](Result<Nym*> nym, NymStartupReport report) {
      NYMIX_CHECK_MSG(nym.ok(), nym.status().ToString().c_str());
      created = *nym;
      if (report_out != nullptr) {
        *report_out = report;
      }
      done = true;
    });
    sim.RunUntil([&] { return done; });
    return created;
  }

  Result<SimTime> VisitAndWait(Nym* nym, Website& site) {
    Result<SimTime> result = InternalError("pending");
    bool done = false;
    nym->browser()->Visit(site, [&](Result<SimTime> r) {
      result = std::move(r);
      done = true;
    });
    sim.RunUntil([&] { return done; });
    return result;
  }

  Result<SaveReceipt> SaveToCloud(Nym* nym, const std::string& account,
                                  const std::string& account_password,
                                  const std::string& archive_password) {
    Result<SaveReceipt> result = InternalError("pending");
    bool done = false;
    manager.SaveNymToCloud(*nym, cloud, account, account_password, archive_password,
                           [&](Result<SaveReceipt> r) {
      result = std::move(r);
      done = true;
    });
    sim.RunUntil([&] { return done; });
    return result;
  }

  struct LoadOutcome {
    Result<Nym*> nym = InternalError("pending");
    NymStartupReport report;
  };
  LoadOutcome LoadFromCloud(const std::string& name, const std::string& account,
                            const std::string& account_password,
                            const std::string& archive_password,
                            NymManager::CreateOptions options = {}) {
    LoadOutcome outcome;
    bool done = false;
    manager.LoadNymFromCloud(name, cloud, account, account_password, archive_password,
                             options, [&](Result<Nym*> nym, NymStartupReport report) {
                               outcome.nym = std::move(nym);
                               outcome.report = report;
                               done = true;
                             });
    sim.RunUntil([&] { return done; });
    return outcome;
  }

  Simulation sim;
  HostMachine host;
  TorNetwork tor;
  DissentServers dissent;
  std::shared_ptr<const BaseImage> image;
  NymManager manager;
  CloudService cloud;
  WebsiteDirectory sites;
};

// ---------------------------------------------------------------- Lifecycle

TEST(NymManagerTest, CreateNymBootsBothVmsAndAnonymizer) {
  CoreRig rig;
  NymStartupReport report;
  Nym* nym = rig.CreateNymOrDie("alice-news", {}, &report);
  ASSERT_NE(nym, nullptr);
  EXPECT_EQ(nym->anon_vm()->state(), VmState::kRunning);
  EXPECT_EQ(nym->comm_vm()->state(), VmState::kRunning);
  EXPECT_TRUE(nym->anonymizer()->ready());
  EXPECT_NE(nym->browser(), nullptr);
  // AnonVM boot (10s) dominates the parallel CommVM boot (5s).
  EXPECT_NEAR(ToSeconds(report.boot_vm), 10.0, 0.2);
  // Fresh Tor bootstrap takes several seconds (cold directory).
  EXPECT_GT(ToSeconds(report.start_anonymizer), 5.0);
  EXPECT_EQ(report.ephemeral_nym, 0);
  // Abstract headline: "loads within 15 to 25 seconds".
  EXPECT_GT(ToSeconds(report.Total()), 15.0);
  EXPECT_LT(ToSeconds(report.Total()), 30.0);
  EXPECT_EQ(rig.manager.nyms().size(), 1u);
  EXPECT_EQ(rig.manager.FindNym("alice-news"), nym);
}

TEST(NymManagerTest, DuplicateNameRejected) {
  CoreRig rig;
  rig.CreateNymOrDie("alice");
  bool done = false;
  rig.manager.CreateNym("alice", {}, [&](Result<Nym*> nym, NymStartupReport) {
    EXPECT_EQ(nym.status().code(), StatusCode::kAlreadyExists);
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
}

TEST(NymManagerTest, TerminateWipesEverything) {
  CoreRig rig;
  Nym* nym = rig.CreateNymOrDie("throwaway");
  ASSERT_TRUE(rig.VisitAndWait(nym, rig.sites.ByName("BBC")).ok());
  uint64_t used_with_nym = rig.host.UsedMemoryBytes();
  EXPECT_GT(used_with_nym, kHostBaselineBytes + 400 * kMiB);

  ASSERT_TRUE(rig.manager.TerminateNym(nym).ok());
  EXPECT_EQ(rig.manager.nyms().size(), 0u);
  EXPECT_EQ(rig.host.vm_count(), 0u);
  rig.host.ksm().ScanNow();
  // All nym memory returned: amnesia.
  EXPECT_EQ(rig.host.UsedMemoryBytes(), kHostBaselineBytes);
  EXPECT_FALSE(rig.manager.TerminateNym(nym).ok());
}

TEST(NymManagerTest, NymboxCostsRoughly600MiB) {
  // Abstract: "Nymix consumes 600 MB per nymbox".
  CoreRig rig;
  uint64_t before = rig.host.ReservedMemoryBytes();
  rig.CreateNymOrDie("cost-check");
  uint64_t per_nymbox = rig.host.ReservedMemoryBytes() - before;
  EXPECT_GE(per_nymbox, 500 * kMiB);
  EXPECT_LE(per_nymbox, 700 * kMiB);
}

TEST(NymManagerTest, HomogeneousFingerprintsAcrossNyms) {
  CoreRig rig;
  Nym* a = rig.CreateNymOrDie("nym-a");
  Nym* b = rig.CreateNymOrDie("nym-b");
  EXPECT_TRUE(IndistinguishableFingerprints(*a->anon_vm(), *b->anon_vm()));
  EXPECT_EQ(FingerprintOf(*a->anon_vm()).resolution, "1024x768");
}

TEST(NymManagerTest, TamperedBaseImageRefused) {
  CoreRig rig;
  NymManager tampered(rig.host, rig.image->TamperedCopy(3, 999), &rig.tor, &rig.dissent);
  bool done = false;
  tampered.CreateNym("victim", {}, [&](Result<Nym*> nym, NymStartupReport) {
    EXPECT_EQ(nym.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(nym.status().message().find("block 3 "), std::string::npos)
        << nym.status().ToString();
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
  EXPECT_EQ(tampered.nyms().size(), 0u);
  // The clean interned image the tampered copy came from still boots.
  EXPECT_NE(rig.CreateNymOrDie("clean"), nullptr);
  EXPECT_EQ(rig.manager.nyms().size(), 1u);
}

TEST(NymManagerTest, ConfigLayersDifferentiateRoles) {
  // §3.4: one shared base image; a per-role configuration layer masks
  // /etc/rc.local and the network configuration. All three VMs read the
  // same base /etc/hostname underneath.
  CoreRig rig;
  Nym* nym = rig.CreateNymOrDie("roles");
  auto anon_rc = nym->anon_vm()->disk().fs().ReadFile("/etc/rc.local");
  auto comm_rc = nym->comm_vm()->disk().fs().ReadFile("/etc/rc.local");
  ASSERT_TRUE(anon_rc.ok() && comm_rc.ok());
  std::string anon_text = StringFromBytes(anon_rc->Materialize());
  std::string comm_text = StringFromBytes(comm_rc->Materialize());
  EXPECT_NE(anon_text, comm_text);
  EXPECT_NE(anon_text.find("chromium"), std::string::npos);
  EXPECT_NE(comm_text.find("tor"), std::string::npos);
  // Network config differs too: the AnonVM has only the wire.
  std::string anon_net = StringFromBytes(
      nym->anon_vm()->disk().fs().ReadFile("/etc/network/interfaces")->Materialize());
  std::string comm_net = StringFromBytes(
      nym->comm_vm()->disk().fs().ReadFile("/etc/network/interfaces")->Materialize());
  EXPECT_EQ(anon_net.find("eth1"), std::string::npos);
  EXPECT_NE(comm_net.find("eth1"), std::string::npos);
  // Same base image below both.
  EXPECT_EQ(StringFromBytes(
                nym->anon_vm()->disk().fs().ReadFile("/etc/hostname")->Materialize()),
            StringFromBytes(
                nym->comm_vm()->disk().fs().ReadFile("/etc/hostname")->Materialize()));
  // A CommVM configured for Dissent gets a different startup script.
  NymManager::CreateOptions dissent;
  dissent.anonymizer = AnonymizerKind::kDissent;
  Nym* dissent_nym = rig.CreateNymOrDie("dissent-roles", dissent);
  std::string dissent_rc = StringFromBytes(
      dissent_nym->comm_vm()->disk().fs().ReadFile("/etc/rc.local")->Materialize());
  EXPECT_NE(dissent_rc.find("dissent"), std::string::npos);
  EXPECT_EQ(dissent_rc.find("/usr/bin/tor"), std::string::npos);
}

TEST(NymManagerTest, AnonymizerChoices) {
  CoreRig rig;
  NymManager::CreateOptions incognito;
  incognito.anonymizer = AnonymizerKind::kIncognito;
  EXPECT_EQ(rig.CreateNymOrDie("quick", incognito)->anonymizer()->kind(),
            AnonymizerKind::kIncognito);
  NymManager::CreateOptions dissent;
  dissent.anonymizer = AnonymizerKind::kDissent;
  EXPECT_EQ(rig.CreateNymOrDie("paranoid", dissent)->anonymizer()->kind(),
            AnonymizerKind::kDissent);
  NymManager::CreateOptions chained;
  chained.anonymizer = AnonymizerKind::kChained;
  Nym* best = rig.CreateNymOrDie("best-of-both", chained);
  EXPECT_EQ(best->anonymizer()->kind(), AnonymizerKind::kChained);
  EXPECT_GT(best->anonymizer()->OverheadFactor(), 2.0);
}

// ---------------------------------------------------------------- Unlinkability

TEST(NymManagerTest, ParallelNymsUnlinkableAtTracker) {
  CoreRig rig;
  Nym* work = rig.CreateNymOrDie("work");
  Nym* blog = rig.CreateNymOrDie("blog");
  Website& twitter = rig.sites.ByName("Twitter");
  ASSERT_TRUE(rig.VisitAndWait(work, twitter).ok());
  ASSERT_TRUE(rig.VisitAndWait(blog, twitter).ok());
  // Separate cookies: no shared client-side state.
  EXPECT_EQ(twitter.DistinctCookies(), 2u);
  // Separate anonymizer instances: independent circuits; both identities
  // are relay exits, not the user.
  for (const auto& record : twitter.tracker_log()) {
    EXPECT_NE(record.observed_source, rig.host.public_ip());
  }
}

TEST(NymManagerTest, LeakProbesGetNoResponse) {
  CoreRig rig;
  Nym* a = rig.CreateNymOrDie("probe-a");
  Nym* b = rig.CreateNymOrDie("probe-b");
  LeakProbeResult result = ProbeAnonVmIsolation(rig.sim, rig.host, *a, b);
  EXPECT_EQ(result.probes_sent, 18u);
  EXPECT_EQ(result.responses_received, 0u);
  EXPECT_EQ(result.dropped_by_commvm, result.probes_sent);
}

TEST(NymManagerTest, UplinkCaptureShowsOnlyDhcpAndAnonymizer) {
  CoreRig rig;
  PacketCapture capture;
  rig.host.uplink()->AttachCapture(&capture);
  rig.host.EmitDhcp();
  Nym* nym = rig.CreateNymOrDie("capture-check");
  ASSERT_TRUE(rig.VisitAndWait(nym, rig.sites.ByName("BBC")).ok());
  (void)ProbeAnonVmIsolation(rig.sim, rig.host, *nym, nullptr);
  CaptureAudit audit = AuditUplinkCapture(capture);
  EXPECT_TRUE(audit.only_dhcp_and_anonymizers) << "unexpected traffic classes";
  EXPECT_TRUE(audit.no_private_sources);
  EXPECT_GT(audit.histogram["Tor"], 0u);
  EXPECT_EQ(audit.histogram["Probe"], 0u);  // probes never reached the uplink
}

// ---------------------------------------------------------------- Quasi-persistence

TEST(NymManagerTest, CloudSaveRestoreRoundTrip) {
  CoreRig rig;
  ASSERT_TRUE(rig.cloud.CreateAccount("pseudo-user", "cloudpw").ok());
  Nym* nym = rig.CreateNymOrDie("twitter-nym");
  Website& twitter = rig.sites.ByName("Twitter");
  bool logged_in = false;
  nym->browser()->Login(twitter, "bob_blogger", "sitepw",
                        [&](Result<SimTime> r) { logged_in = r.ok(); });
  rig.sim.RunUntil([&] { return logged_in; });
  ASSERT_TRUE(rig.VisitAndWait(nym, twitter).ok());
  std::string cookie = nym->browser()->CookieFor("twitter.com");
  auto guard_before = static_cast<TorClient*>(nym->anonymizer())->entry_guard_index();

  auto receipt = rig.SaveToCloud(nym, "pseudo-user", "cloudpw", "nympw");
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->sequence, 0u);
  EXPECT_GT(receipt->logical_size, 1 * kMiB);
  EXPECT_GT(receipt->anonvm_fraction, 0.5);
  ASSERT_TRUE(rig.manager.TerminateNym(nym).ok());

  auto outcome = rig.LoadFromCloud("twitter-nym", "pseudo-user", "cloudpw", "nympw");
  ASSERT_TRUE(outcome.nym.ok());
  Nym* restored = *outcome.nym;
  // The loader nym existed and is gone again.
  EXPECT_GT(ToSeconds(outcome.report.ephemeral_nym), 5.0);
  EXPECT_EQ(rig.manager.FindNym("twitter-nym-loader"), nullptr);
  EXPECT_EQ(rig.manager.nyms().size(), 1u);
  // Credentials and cookie survived: no retyping (§3.5).
  EXPECT_TRUE(restored->browser()->HasStoredCredential("twitter.com"));
  EXPECT_EQ(*restored->browser()->StoredAccount("twitter.com"), "bob_blogger");
  EXPECT_EQ(restored->browser()->CookieFor("twitter.com"), cookie);
  // Tor guard survived via the CommVM state.
  auto guard_after = static_cast<TorClient*>(restored->anonymizer())->entry_guard_index();
  ASSERT_TRUE(guard_before.has_value() && guard_after.has_value());
  EXPECT_EQ(*guard_after, *guard_before);
  // Restored bootstrap was warm (cached consensus).
  EXPECT_LT(ToSeconds(outcome.report.start_anonymizer), 6.0);
  // Next save uses the next sequence number.
  EXPECT_EQ(restored->save_sequence(), 1u);
}

TEST(NymManagerTest, WrongPasswordFailsLoad) {
  CoreRig rig;
  ASSERT_TRUE(rig.cloud.CreateAccount("user", "cloudpw").ok());
  Nym* nym = rig.CreateNymOrDie("secret");
  ASSERT_TRUE(rig.SaveToCloud(nym, "user", "cloudpw", "rightpw").ok());
  ASSERT_TRUE(rig.manager.TerminateNym(nym).ok());
  auto outcome = rig.LoadFromCloud("secret", "user", "cloudpw", "wrongpw");
  // Object names are blinded with the archive password, so a wrong password
  // computes a different name and the archive is simply not found — the
  // provider cannot distinguish "wrong password" from "never saved".
  EXPECT_EQ(outcome.nym.status().code(), StatusCode::kNotFound);
  // Loader cleaned up even on failure.
  EXPECT_EQ(rig.manager.nyms().size(), 0u);
}

TEST(NymManagerTest, MissingArchiveFailsLoad) {
  CoreRig rig;
  ASSERT_TRUE(rig.cloud.CreateAccount("user", "pw").ok());
  auto outcome = rig.LoadFromCloud("never-saved", "user", "pw", "nympw");
  EXPECT_FALSE(outcome.nym.ok());
  EXPECT_EQ(rig.manager.nyms().size(), 0u);
}

TEST(NymManagerTest, CloudProviderSeesOnlyExitsAndCiphertext) {
  CoreRig rig;
  ASSERT_TRUE(rig.cloud.CreateAccount("user", "pw").ok());
  Nym* nym = rig.CreateNymOrDie("deniable");
  ASSERT_TRUE(rig.VisitAndWait(nym, rig.sites.ByName("Gmail")).ok());
  ASSERT_TRUE(rig.SaveToCloud(nym, "user", "pw", "nympw").ok());
  // Provider's access log never contains the user's address or the nym name:
  // archives are indexed by the blinded object name, not the pseudonym.
  for (const auto& entry : rig.cloud.access_log()) {
    EXPECT_NE(entry.observed_source, rig.host.public_ip());
    EXPECT_EQ(entry.action.find("deniable"), std::string::npos) << entry.action;
  }
  auto listing = rig.cloud.List("user");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), 1u);
  for (const std::string& object : *listing) {
    EXPECT_EQ(object.find("deniable"), std::string::npos) << object;
  }
  // Only the owner can recompute the object name (it needs the password).
  auto stored = rig.cloud.Get("user", BlindObjectName("deniable", "nympw"));
  ASSERT_TRUE(stored.ok());
  EXPECT_FALSE(rig.cloud.Get("user", "deniable").ok());
  // Stored bytes are ciphertext: no plaintext paths or cookies.
  std::string blob = StringFromBytes(stored->data);
  EXPECT_EQ(blob.find("cookies"), std::string::npos);
  EXPECT_EQ(blob.find("twitter"), std::string::npos);
}

TEST(NymManagerTest, LocalSaveRestoreAndForensics) {
  CoreRig rig;
  LocalStore usb("usb-2");
  Nym* nym = rig.CreateNymOrDie("local-nym");
  ASSERT_TRUE(rig.VisitAndWait(nym, rig.sites.ByName("BBC")).ok());
  Result<SaveReceipt> receipt = InternalError("pending");
  bool done = false;
  rig.manager.SaveNymToLocal(*nym, usb, "pw", [&](Result<SaveReceipt> r) {
    receipt = std::move(r);
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
  ASSERT_TRUE(receipt.ok());
  ASSERT_TRUE(rig.manager.TerminateNym(nym).ok());
  // Local storage is visible to confiscation (unlike the cloud).
  EXPECT_TRUE(usb.HasSuspiciousState());

  bool loaded = false;
  Result<Nym*> restored = InternalError("pending");
  NymStartupReport report;
  rig.manager.LoadNymFromLocal("local-nym", usb, "pw", {},
                               [&](Result<Nym*> nym_result, NymStartupReport r) {
                                 restored = std::move(nym_result);
                                 report = r;
                                 loaded = true;
                               });
  rig.sim.RunUntil([&] { return loaded; });
  ASSERT_TRUE(restored.ok());
  // No ephemeral download nym needed for local loads.
  EXPECT_LT(ToSeconds(report.ephemeral_nym), 2.0);
  EXPECT_TRUE((*restored)->browser()->HasCookieFor("bbc.co.uk"));
}

TEST(NymManagerTest, LocalSaveSequenceAndLoadFailures) {
  CoreRig rig;
  LocalStore usb("usb-3");
  auto save = [&](Nym* nym) {
    Result<SaveReceipt> receipt = InternalError("pending");
    bool done = false;
    rig.manager.SaveNymToLocal(*nym, usb, "pw", [&](Result<SaveReceipt> r) {
      receipt = std::move(r);
      done = true;
    });
    rig.sim.RunUntil([&] { return done; });
    return receipt;
  };
  auto load = [&](const std::string& password) {
    Result<Nym*> loaded = InternalError("pending");
    bool done = false;
    rig.manager.LoadNymFromLocal("local-nym", usb, password, {},
                                 [&](Result<Nym*> nym, NymStartupReport) {
                                   loaded = std::move(nym);
                                   done = true;
                                 });
    rig.sim.RunUntil([&] { return done; });
    return loaded;
  };

  Nym* nym = rig.CreateNymOrDie("local-nym");
  Result<SaveReceipt> first = save(nym);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->sequence, 0u);
  Result<SaveReceipt> second = save(nym);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->sequence, 1u);

  // A live nym of the same name blocks the load.
  EXPECT_EQ(load("pw").status().code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(rig.manager.TerminateNym(nym).ok());

  // A wrong password fails to open the archive and wires nothing.
  EXPECT_EQ(load("wrong").status().code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(rig.manager.FindNym("local-nym"), nullptr);

  Result<Nym*> restored = load("pw");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->save_sequence(), 2u);
}

TEST(NymManagerTest, GuardSeedMakesLoaderUseSameGuard) {
  CoreRig rig;
  ASSERT_TRUE(rig.cloud.CreateAccount("user", "pw").ok());
  uint64_t seed = DeriveGuardSeed("drop.example.com/user", "nympw");
  NymManager::CreateOptions options;
  options.guard_seed = seed;
  Nym* nym = rig.CreateNymOrDie("seeded", options);
  auto original_guard = static_cast<TorClient*>(nym->anonymizer())->entry_guard_index();
  ASSERT_TRUE(rig.SaveToCloud(nym, "user", "pw", "nympw").ok());
  ASSERT_TRUE(rig.manager.TerminateNym(nym).ok());

  auto outcome = rig.LoadFromCloud("seeded", "user", "pw", "nympw", options);
  ASSERT_TRUE(outcome.nym.ok());
  auto restored_guard =
      static_cast<TorClient*>((*outcome.nym)->anonymizer())->entry_guard_index();
  ASSERT_TRUE(original_guard.has_value() && restored_guard.has_value());
  // Both the restored nym AND the ephemeral loader picked this guard — the
  // §3.5 fix for the remaining intersection-attack exposure.
  EXPECT_EQ(*restored_guard, *original_guard);
}

TEST(NymManagerTest, PersistentSavesIncrementSequence) {
  CoreRig rig;
  ASSERT_TRUE(rig.cloud.CreateAccount("user", "pw").ok());
  NymManager::CreateOptions options;
  options.mode = NymMode::kPersistent;
  Nym* nym = rig.CreateNymOrDie("grower", options);
  Website& gmail = rig.sites.ByName("Gmail");
  std::vector<uint64_t> sizes;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(rig.VisitAndWait(nym, gmail).ok());
    auto receipt = rig.SaveToCloud(nym, "user", "pw", "nympw");
    ASSERT_TRUE(receipt.ok());
    EXPECT_EQ(receipt->sequence, static_cast<uint32_t>(cycle));
    sizes.push_back(receipt->logical_size);
  }
  // Persistent nyms grow across cycles (Fig. 6).
  EXPECT_GT(sizes[2], sizes[0]);
}

// ---------------------------------------------------------------- SaniVM

TEST(SaniVmTest, ScrubbedTransferWorkflow) {
  CoreRig rig;
  SaniService sani(rig.manager);
  bool ready = false;
  sani.Start([&](SimTime) { ready = true; });
  rig.sim.RunUntil([&] { return ready; });

  // The user's camera SD card, with a compromising photo.
  auto sdcard = std::make_shared<MemFs>();
  JpegFile photo;
  photo.image = GeneratePhoto(256, 192, 7, {{40, 40, 48, 48}});
  ExifData exif;
  exif.gps = GpsCoordinate{38.1234, 68.7742};
  exif.body_serial_number = "PHONE-123";
  photo.exif = exif;
  ASSERT_TRUE(
      sdcard->WriteFile("/DCIM/IMG_0001.jpg", Blob::FromBytes(EncodeJpeg(photo))).ok());
  ASSERT_TRUE(sani.MountHostFilesystem("sdcard", sdcard).ok());
  EXPECT_EQ(sani.MountedFilesystems(), std::vector<std::string>{"sdcard"});

  Nym* nym = rig.CreateNymOrDie("poster");
  ASSERT_TRUE(sani.RegisterNym(*nym).ok());

  // Risk analysis first (the user-facing list).
  auto analysis = sani.AnalyzeHostFile("sdcard", "/DCIM/IMG_0001.jpg");
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->Has(RiskType::kGpsLocation));
  EXPECT_TRUE(analysis->Has(RiskType::kFace));

  ScrubOptions options;
  options.level = ParanoiaLevel::kMetadataAndVisual;
  auto outcome = sani.TransferToNym(*nym, "sdcard", "/DCIM/IMG_0001.jpg", options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(sani.transfers_completed(), 1u);

  // The AnonVM sees the scrubbed file through its VirtFS share...
  auto share = nym->anon_vm()->GetShare("incoming");
  ASSERT_TRUE(share.ok());
  auto transferred = (*share)->ReadFile(outcome->guest_path);
  ASSERT_TRUE(transferred.ok());
  // ...and it is clean.
  auto clean = AnalyzeFile(transferred->bytes());
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->Has(RiskType::kGpsLocation));
  EXPECT_FALSE(clean->Has(RiskType::kDeviceSerial));
  EXPECT_FALSE(clean->Has(RiskType::kFace));
  // The original on the SD card is untouched.
  auto original = sani.AnalyzeHostFile("sdcard", "/DCIM/IMG_0001.jpg");
  EXPECT_TRUE(original->Has(RiskType::kGpsLocation));
}

TEST(SaniVmTest, StagedDirectoryWorkflow) {
  CoreRig rig;
  SaniService sani(rig.manager);
  bool ready = false;
  sani.Start([&](SimTime) { ready = true; });
  rig.sim.RunUntil([&] { return ready; });

  auto sdcard = std::make_shared<MemFs>();
  for (int i = 0; i < 2; ++i) {
    JpegFile photo;
    photo.image = GeneratePhoto(64, 48, static_cast<uint64_t>(i), {});
    ExifData exif;
    exif.gps = GpsCoordinate{38.0 + i, 68.0};
    photo.exif = exif;
    ASSERT_TRUE(sdcard->WriteFile("/DCIM/IMG_000" + std::to_string(i) + ".jpg",
                                  Blob::FromBytes(EncodeJpeg(photo)))
                    .ok());
  }
  // A non-scrubbable file stays pending instead of being transferred raw.
  ASSERT_TRUE(sdcard->WriteFile("/DCIM/notes.xyz", Blob::FromString("opaque bytes")).ok());
  ASSERT_TRUE(sani.MountHostFilesystem("sdcard", sdcard).ok());
  Nym* nym = rig.CreateNymOrDie("stager");
  ASSERT_TRUE(sani.RegisterNym(*nym).ok());

  // The user drags three files into the nym's transfer directory.
  ASSERT_TRUE(sani.StageForNym(*nym, "sdcard", "/DCIM/IMG_0000.jpg").ok());
  ASSERT_TRUE(sani.StageForNym(*nym, "sdcard", "/DCIM/IMG_0001.jpg").ok());
  ASSERT_TRUE(sani.StageForNym(*nym, "sdcard", "/DCIM/notes.xyz").ok());
  EXPECT_EQ(sani.PendingFiles(*nym).size(), 3u);

  auto outcomes = sani.ProcessPending(*nym, ScrubOptions{});
  ASSERT_EQ(outcomes.size(), 3u);
  int succeeded = 0, failed = 0;
  for (const auto& outcome : outcomes) {
    outcome.ok() ? ++succeeded : ++failed;
  }
  EXPECT_EQ(succeeded, 2);
  EXPECT_EQ(failed, 1);  // the unknown file type
  // The failure stays pending; the scrubbed files reached the share clean.
  EXPECT_EQ(sani.PendingFiles(*nym), std::vector<std::string>{"notes.xyz"});
  auto share = nym->anon_vm()->GetShare("incoming");
  ASSERT_TRUE(share.ok());
  auto scrubbed = (*share)->ReadFile("/IMG_0000.jpg");
  ASSERT_TRUE(scrubbed.ok());
  auto report = AnalyzeFile(scrubbed->bytes());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->Has(RiskType::kGpsLocation));
  EXPECT_EQ(sani.transfers_completed(), 2u);
  // Staging without registration fails.
  Nym* other = rig.CreateNymOrDie("unregistered-stager");
  EXPECT_EQ(sani.StageForNym(*other, "sdcard", "/DCIM/notes.xyz").code(),
            StatusCode::kFailedPrecondition);
}

TEST(ValidationTest, ProbeHarnessIsNotVacuous) {
  // A chatty neighbor on a direct wire DOES answer the exact probes the
  // isolation sweep sends — so zero responses from a nymbox means the
  // CommVM dropped them, not that responses are unobservable.
  CoreRig rig;
  Link* direct = rig.sim.CreateLink("direct-lan", Millis(1), 1'000'000'000);
  EchoResponder neighbor;
  direct->AttachB(&neighbor);
  Nym* nym = rig.CreateNymOrDie("prober");
  nym->anon_vm()->AttachNic(direct, /*side_a=*/true);

  Packet probe;
  probe.src_ip = kGuestAnonVmIp;
  probe.dst_ip = kHostLanIp;
  probe.dst_port = 7;
  probe.payload = BytesFromString("probe");
  probe.annotation = "Probe";
  uint64_t received_before = nym->anon_vm()->packets_received();
  nym->anon_vm()->SendPacket(direct, std::move(probe));
  rig.sim.loop().RunUntilIdle();
  EXPECT_EQ(neighbor.probes_heard(), 1u);
  EXPECT_EQ(nym->anon_vm()->packets_received(), received_before + 1);  // reply arrived

  // The same probes through the nymbox wire: the neighbor hears nothing.
  LeakProbeResult result = ProbeAnonVmIsolation(rig.sim, rig.host, *nym, nullptr);
  EXPECT_EQ(result.responses_received, 0u);
  EXPECT_EQ(neighbor.probes_heard(), 1u);  // unchanged
}

TEST(SaniVmTest, RequiresRegistrationAndMounts) {
  CoreRig rig;
  SaniService sani(rig.manager);
  bool ready = false;
  sani.Start([&](SimTime) { ready = true; });
  rig.sim.RunUntil([&] { return ready; });
  Nym* nym = rig.CreateNymOrDie("unregistered");
  ScrubOptions options;
  EXPECT_EQ(sani.TransferToNym(*nym, "nope", "/x", options).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sani.RegisterNym(*nym).ok());
  EXPECT_FALSE(sani.RegisterNym(*nym).ok());
  EXPECT_EQ(sani.TransferToNym(*nym, "nope", "/x", options).status().code(),
            StatusCode::kNotFound);
}

TEST(SaniVmTest, SaniVmHasNoNetwork) {
  CoreRig rig;
  SaniService sani(rig.manager);
  bool ready = false;
  sani.Start([&](SimTime) { ready = true; });
  rig.sim.RunUntil([&] { return ready; });
  // No NICs were ever attached: sending is impossible by construction, and
  // the VM reports zero network activity.
  EXPECT_EQ(sani.vm()->packets_received(), 0u);
  EXPECT_EQ(sani.vm()->role(), VmRole::kSaniVm);
}

// ---------------------------------------------------------------- Installed OS

TEST(InstalledOsTest, Windows7MatchesTableOne) {
  CoreRig rig;
  InstalledOsNymService service(rig.manager);
  auto media = MakeInstalledOsMedia(InstalledOsKind::kWindows7, 5);
  Result<Nym*> nym = InternalError("pending");
  InstalledOsReport report;
  bool done = false;
  service.BootAsNym(media, [&](Result<Nym*> n, InstalledOsReport r) {
    nym = std::move(n);
    report = r;
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
  ASSERT_TRUE(nym.ok());
  // Table 1 row "7": repair 129.3 s, boot 34.3 s, size 4.5 MB.
  EXPECT_NEAR(report.repair_seconds, 129.3, 5.0);
  EXPECT_NEAR(report.boot_seconds, 34.3, 3.0);
  EXPECT_NEAR(static_cast<double>(report.cow_bytes) / kMiB, 4.5, 0.8);
  EXPECT_TRUE(media.repaired);
  // The installed OS nym is non-anonymous (incognito NAT).
  EXPECT_FALSE((*nym)->anonymizer()->ProtectsNetworkIdentity());
}

TEST(InstalledOsTest, PhysicalDiskNeverWritten) {
  CoreRig rig;
  InstalledOsNymService service(rig.manager);
  auto media = MakeInstalledOsMedia(InstalledOsKind::kWindowsVista, 5);
  uint64_t disk_bytes = media.disk->TotalBytes();
  bool done = false;
  service.BootAsNym(media, [&](Result<Nym*>, InstalledOsReport) { done = true; });
  rig.sim.RunUntil([&] { return done; });
  EXPECT_EQ(media.disk->TotalBytes(), disk_bytes);
  EXPECT_TRUE(media.disk->Exists("/ProgramData/wifi/profiles.xml"));
}

TEST(InstalledOsTest, SecondBootSkipsRepair) {
  CoreRig rig;
  InstalledOsNymService service(rig.manager);
  auto media = MakeInstalledOsMedia(InstalledOsKind::kWindows8, 5);
  bool done = false;
  InstalledOsReport first;
  service.BootAsNym(media, [&](Result<Nym*> n, InstalledOsReport r) {
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(rig.manager.TerminateNym(*n).ok());
    first = r;
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
  EXPECT_GT(first.repair_seconds, 100.0);

  done = false;
  InstalledOsReport second;
  service.BootAsNym(media, [&](Result<Nym*> n, InstalledOsReport r) {
    ASSERT_TRUE(n.ok());
    second = r;
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
  EXPECT_EQ(second.repair_seconds, 0.0);
  EXPECT_NEAR(second.boot_seconds, first.boot_seconds, 1.0);
}

TEST(InstalledOsTest, TableOneCostModel) {
  auto vista = InstalledOsProfile::For(InstalledOsKind::kWindowsVista);
  auto win7 = InstalledOsProfile::For(InstalledOsKind::kWindows7);
  auto win8 = InstalledOsProfile::For(InstalledOsKind::kWindows8);
  EXPECT_NEAR(RepairSecondsFor(vista), 133.7, 2.0);
  EXPECT_NEAR(RepairSecondsFor(win7), 129.3, 2.0);
  EXPECT_NEAR(RepairSecondsFor(win8), 157.0, 2.0);
  EXPECT_NEAR(BootSecondsFor(vista), 37.7, 1.0);
  EXPECT_NEAR(BootSecondsFor(win7), 34.3, 1.0);
  EXPECT_NEAR(BootSecondsFor(win8), 58.7, 1.0);
  EXPECT_NEAR(static_cast<double>(CowBytesFor(vista)) / kMiB, 4.9, 0.5);
  EXPECT_NEAR(static_cast<double>(CowBytesFor(win8)) / kMiB, 14.0, 1.0);
  EXPECT_EQ(RepairSecondsFor(InstalledOsProfile::For(InstalledOsKind::kLinux)), 0.0);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, IntersectionAttackNarrowsCandidates) {
  IntersectionObserver observer;
  observer.RecordRound({"alice", "bob", "carol", "dave"}, true);
  EXPECT_EQ(observer.AnonymitySetSize(), 4u);
  observer.RecordRound({"alice", "bob", "eve"}, true);
  EXPECT_EQ(observer.AnonymitySetSize(), 2u);  // {alice, bob}
  observer.RecordRound({"bob", "carol"}, true);
  EXPECT_EQ(observer.AnonymitySetSize(), 1u);  // bob exposed
  EXPECT_EQ(observer.posting_rounds(), 3u);
  EXPECT_EQ(*observer.CandidateSet().begin(), "bob");
}

TEST(MetricsTest, NonPostingRoundsDoNotNarrow) {
  IntersectionObserver observer;
  observer.RecordRound({"alice", "bob"}, true);
  observer.RecordRound({"carol"}, false);
  EXPECT_EQ(observer.AnonymitySetSize(), 2u);
}

TEST(MetricsTest, BuddiesPolicyBlocksUnsafePosts) {
  IntersectionObserver observer;
  observer.RecordRound({"alice", "bob", "carol"}, true);
  BuddiesPolicy policy(2);
  EXPECT_TRUE(policy.MayPost(observer, {"alice", "bob", "dave"}));   // set -> 2
  EXPECT_FALSE(policy.MayPost(observer, {"alice", "dave", "eve"}));  // set -> 1
  EXPECT_EQ(policy.ProjectedSetSize(observer, {"alice", "bob"}), 2u);
}

TEST(MetricsTest, EphemeralNymsResistIntersection) {
  // A user who posts from throwaway nyms (different pseudonyms) gives the
  // adversary one round per pseudonym — no intersection accumulates.
  IntersectionObserver per_nym_a;
  per_nym_a.RecordRound({"alice", "bob", "carol", "dave"}, true);
  IntersectionObserver per_nym_b;
  per_nym_b.RecordRound({"alice", "bob", "eve"}, true);
  EXPECT_EQ(per_nym_a.AnonymitySetSize(), 4u);
  EXPECT_EQ(per_nym_b.AnonymitySetSize(), 3u);
  // Versus one long-lived pseudonym across the same rounds:
  IntersectionObserver linked;
  linked.RecordRound({"alice", "bob", "carol", "dave"}, true);
  linked.RecordRound({"alice", "bob", "eve"}, true);
  EXPECT_EQ(linked.AnonymitySetSize(), 2u);
}

}  // namespace
}  // namespace nymix
