#include <gtest/gtest.h>

#include "src/anon/incognito.h"
#include "src/anon/tor.h"
#include "src/net/nat.h"
#include "src/workload/browser.h"
#include "src/workload/downloader.h"
#include "src/workload/peacekeeper.h"

namespace nymix {
namespace {

// Full-ish rig: host, one AnonVM, incognito anonymizer (fast, simple),
// websites.
struct BrowserRig {
  BrowserRig()
      : sim(1),
        host(sim, HostConfig{}),
        image(BaseImage::CreateDistribution("nymix", 42, 64 * kMiB)),
        sites(sim, PaperWebsiteProfiles()) {
    auto created = host.CreateVm(VmConfig::AnonVm("anon-1"), image, nullptr);
    NYMIX_CHECK(created.ok());
    anon_vm = *created;
    anon_vm->Boot(nullptr);
    sim.loop().RunUntilIdle();

    vm_uplink = host.CreateVmUplink("vm-uplink");
    ClientAttachment attachment;
    attachment.sim = &sim;
    attachment.vm_uplink = vm_uplink;
    attachment.client_links = {vm_uplink, host.uplink()};
    attachment.host_public_ip = host.public_ip();
    anonymizer = std::make_unique<IncognitoVpn>(attachment);
    anonymizer->Start(nullptr);
    sim.loop().RunUntilIdle();
    browser = std::make_unique<BrowserModel>(sim, anon_vm, anonymizer.get(), 99);
  }

  Result<SimTime> VisitAndWait(Website& site) {
    Result<SimTime> result = InternalError("pending");
    bool done = false;
    browser->Visit(site, [&](Result<SimTime> r) {
      result = std::move(r);
      done = true;
    });
    sim.RunUntil([&] { return done; });
    return result;
  }

  Simulation sim;
  HostMachine host;
  std::shared_ptr<const BaseImage> image;
  WebsiteDirectory sites;
  VirtualMachine* anon_vm = nullptr;
  Link* vm_uplink = nullptr;
  std::unique_ptr<IncognitoVpn> anonymizer;
  std::unique_ptr<BrowserModel> browser;
};

// ---------------------------------------------------------------- Websites

TEST(WebsiteTest, PaperProfilesCompleteAndOrdered) {
  auto profiles = PaperWebsiteProfiles();
  ASSERT_EQ(profiles.size(), 8u);
  EXPECT_EQ(profiles[0].name, "Gmail");
  EXPECT_EQ(profiles[1].name, "Twitter");
  EXPECT_EQ(profiles[2].name, "Youtube");
  EXPECT_EQ(profiles[3].name, "TorBlog");
  EXPECT_EQ(profiles[4].name, "BBC");
  EXPECT_EQ(profiles[5].name, "Facebook");
  EXPECT_EQ(profiles[6].name, "Slashdot");
  EXPECT_EQ(profiles[7].name, "ESPN");
  EXPECT_TRUE(profiles[0].supports_login);
  EXPECT_FALSE(profiles[3].supports_login);  // Tor Blog
}

TEST(WebsiteTest, DirectoryLookupAndDns) {
  Simulation sim(1);
  WebsiteDirectory sites(sim, PaperWebsiteProfiles());
  EXPECT_EQ(sites.ByName("Twitter").profile().domain, "twitter.com");
  EXPECT_EQ(sites.ByDomain("bbc.co.uk").profile().name, "BBC");
  EXPECT_EQ(sites.all().size(), 8u);
  EXPECT_TRUE(sim.internet().Resolve("twitter.com").ok());
}

TEST(WebsiteTest, ControlPlaneDatagramsAnswered) {
  // Websites, the cloud front-end, and the kernel mirror all answer
  // control-plane pings (login pages, HEAD checks) addressed to them.
  Simulation sim(1);
  WebsiteDirectory sites(sim, PaperWebsiteProfiles());
  KernelMirror mirror(sim);
  Link* uplink = sim.CreateLink("uplink", Millis(5), 10'000'000);
  sim.internet().AttachUplink(uplink);

  class Collector : public PacketSink {
   public:
    void OnPacket(const Packet& packet, Link&, bool) override { replies.push_back(packet); }
    std::vector<Packet> replies;
  } client;
  uplink->AttachA(&client);

  for (Ipv4Address target : {sites.ByName("BBC").ip(), mirror.ip()}) {
    Packet ping;
    ping.src_ip = Ipv4Address(203, 0, 113, 99);
    ping.src_port = 555;
    ping.dst_ip = target;
    ping.dst_port = 80;
    ping.payload = BytesFromString("HEAD /");
    uplink->SendFromA(std::move(ping));
  }
  sim.loop().RunUntilIdle();
  ASSERT_EQ(client.replies.size(), 2u);
  for (const Packet& reply : client.replies) {
    EXPECT_EQ(StringFromBytes(reply.payload), "200 OK");
    EXPECT_EQ(reply.dst_port, 555);
  }
}

// ---------------------------------------------------------------- Browser

TEST(BrowserTest, VisitWritesCacheCookiesHistory) {
  BrowserRig rig;
  Website& twitter = rig.sites.ByName("Twitter");
  auto result = rig.VisitAndWait(twitter);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(twitter.visit_count(), 1u);
  EXPECT_TRUE(rig.browser->HasCookieFor("twitter.com"));
  EXPECT_EQ(rig.browser->CacheBytes(), twitter.profile().cache_first_bytes);
  EXPECT_EQ(rig.browser->History(), std::vector<std::string>{"twitter.com"});
  // Dirty pages grew beyond the boot state.
  EXPECT_GT(rig.anon_vm->memory().unique_pages(),
            static_cast<uint64_t>(0.15 * rig.anon_vm->memory().total_pages()));
}

TEST(BrowserTest, RevisitIsCheaperAndKeepsCookie) {
  BrowserRig rig;
  Website& twitter = rig.sites.ByName("Twitter");
  ASSERT_TRUE(rig.VisitAndWait(twitter).ok());
  std::string cookie = rig.browser->CookieFor("twitter.com");
  uint64_t cache_after_first = rig.browser->CacheBytes();
  ASSERT_TRUE(rig.VisitAndWait(twitter).ok());
  EXPECT_EQ(rig.browser->CookieFor("twitter.com"), cookie);
  EXPECT_EQ(rig.browser->CacheBytes(),
            cache_after_first + twitter.profile().cache_revisit_bytes);
  // The tracker sees the same cookie both times (linkable within the nym).
  ASSERT_EQ(twitter.tracker_log().size(), 2u);
  EXPECT_EQ(twitter.tracker_log()[0].cookie, twitter.tracker_log()[1].cookie);
  EXPECT_EQ(twitter.DistinctCookies(), 1u);
}

TEST(BrowserTest, LoginStoresCredential) {
  BrowserRig rig;
  Website& twitter = rig.sites.ByName("Twitter");
  bool done = false;
  rig.browser->Login(twitter, "bob_the_blogger", "hunter2", [&](Result<SimTime> r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
  EXPECT_TRUE(rig.browser->HasStoredCredential("twitter.com"));
  EXPECT_EQ(*rig.browser->StoredAccount("twitter.com"), "bob_the_blogger");
  ASSERT_EQ(twitter.tracker_log().size(), 1u);
  EXPECT_EQ(twitter.tracker_log()[0].account, "bob_the_blogger");
  // Sites without login support refuse.
  bool refused = false;
  rig.browser->Login(rig.sites.ByName("TorBlog"), "x", "y", [&](Result<SimTime> r) {
    EXPECT_FALSE(r.ok());
    refused = true;
  });
  EXPECT_TRUE(refused);
}

TEST(BrowserTest, CredentialsSurviveBrowserRestart) {
  BrowserRig rig;
  Website& twitter = rig.sites.ByName("Twitter");
  bool done = false;
  rig.browser->Login(twitter, "bob", "pw", [&](Result<SimTime>) { done = true; });
  rig.sim.RunUntil([&] { return done; });
  std::string cookie = rig.browser->CookieFor("twitter.com");
  // New BrowserModel over the same VM disk (same nym, new session).
  BrowserModel reopened(rig.sim, rig.anon_vm, rig.anonymizer.get(), 123);
  EXPECT_TRUE(reopened.HasStoredCredential("twitter.com"));
  EXPECT_EQ(reopened.CookieFor("twitter.com"), cookie);
}

TEST(BrowserTest, CacheEvictsAtCapacity) {
  BrowserRig rig;
  BrowserModel::Config config;
  config.cache_capacity = 30 * kMiB;
  BrowserModel browser(rig.sim, rig.anon_vm, rig.anonymizer.get(), 5, config);
  Website& gmail = rig.sites.ByName("Gmail");      // 25 MiB first visit
  Website& youtube = rig.sites.ByName("Youtube");  // 22 MiB first visit
  bool done = false;
  browser.Visit(gmail, [&](Result<SimTime>) { done = true; });
  rig.sim.RunUntil([&] { return done; });
  done = false;
  browser.Visit(youtube, [&](Result<SimTime>) { done = true; });
  rig.sim.RunUntil([&] { return done; });
  EXPECT_LE(browser.CacheBytes(), 30 * kMiB);
  EXPECT_GT(browser.CacheBytes(), 0u);
}

TEST(BrowserTest, TwoNymsAreUnlinkableAtTheTracker) {
  BrowserRig rig;
  Website& twitter = rig.sites.ByName("Twitter");
  ASSERT_TRUE(rig.VisitAndWait(twitter).ok());
  // Second nym: separate VM, separate browser state.
  auto created = rig.host.CreateVm(VmConfig::AnonVm("anon-2"), rig.image, nullptr);
  ASSERT_TRUE(created.ok());
  (*created)->Boot(nullptr);
  rig.sim.loop().RunUntilIdle();
  BrowserModel browser2(rig.sim, *created, rig.anonymizer.get(), 777);
  bool done = false;
  browser2.Visit(twitter, [&](Result<SimTime>) { done = true; });
  rig.sim.RunUntil([&] { return done; });
  // The tracker observes two distinct cookies — no shared client state.
  EXPECT_EQ(twitter.DistinctCookies(), 2u);
}

// ---------------------------------------------------------------- Peacekeeper

TEST(PeacekeeperTest, NativeScoreIsReference) {
  Simulation sim(1);
  HostMachine host(sim, HostConfig{});
  double score = 0;
  Peacekeeper::Run(host, /*virtualized=*/false, [&](double s) { score = s; });
  sim.loop().RunUntilIdle();
  EXPECT_NEAR(score, 4800.0, 1.0);
}

TEST(PeacekeeperTest, VirtualizedPaysOverhead) {
  Simulation sim(1);
  HostMachine host(sim, HostConfig{});
  double score = 0;
  Peacekeeper::Run(host, /*virtualized=*/true, [&](double s) { score = s; });
  sim.loop().RunUntilIdle();
  EXPECT_LT(score, 4800.0 * 0.88);
  EXPECT_GT(score, 4800.0 * 0.75);
}

TEST(PeacekeeperTest, ParallelActualBeatsExpected) {
  // 8 virtualized instances on 4 cores: the Figure 4 claim.
  Simulation sim(1);
  HostMachine host(sim, HostConfig{});
  double single = 0;
  Peacekeeper::Run(host, true, [&](double s) { single = s; });
  sim.loop().RunUntilIdle();

  std::vector<double> scores;
  for (int i = 0; i < 8; ++i) {
    Peacekeeper::Run(host, true, [&](double s) { scores.push_back(s); });
  }
  sim.loop().RunUntilIdle();
  ASSERT_EQ(scores.size(), 8u);
  double average = 0;
  for (double s : scores) {
    average += s;
  }
  average /= 8;
  double expected = Peacekeeper::ExpectedScore(single, 8, host.config().cores);
  EXPECT_GT(average, expected);           // idle gaps overlap
  EXPECT_LT(average, single);             // but contention is real
}

TEST(PeacekeeperTest, ExpectedCurveShape) {
  EXPECT_DOUBLE_EQ(Peacekeeper::ExpectedScore(4000, 1, 4), 4000);
  EXPECT_DOUBLE_EQ(Peacekeeper::ExpectedScore(4000, 4, 4), 4000);
  EXPECT_DOUBLE_EQ(Peacekeeper::ExpectedScore(4000, 8, 4), 2000);
}

// ---------------------------------------------------------------- Downloader

TEST(DownloaderTest, KernelDownloadAtTenMbit) {
  BrowserRig rig;
  KernelMirror mirror(rig.sim);
  Result<double> elapsed = InternalError("pending");
  bool done = false;
  DownloadKernel(*rig.anonymizer, mirror, rig.sim, [&](Result<double> r) {
    elapsed = std::move(r);
    done = true;
  });
  rig.sim.RunUntil([&] { return done; });
  ASSERT_TRUE(elapsed.ok());
  // 78 MB at 10 Mbit/s ≈ 62.4 s with incognito (no overhead).
  EXPECT_NEAR(*elapsed, 62.4, 1.5);
  EXPECT_EQ(mirror.downloads_served(), 1u);
}

}  // namespace
}  // namespace nymix
