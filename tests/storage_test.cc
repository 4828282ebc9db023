#include <gtest/gtest.h>

#include "src/storage/cloud.h"
#include "src/storage/local_store.h"
#include "src/storage/nym_archive.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- Cloud

TEST(CloudTest, AccountLifecycle) {
  Simulation sim(1);
  CloudService cloud(sim, "drop.example.com");
  EXPECT_TRUE(cloud.CreateAccount("nym-user-1", "pw1").ok());
  EXPECT_FALSE(cloud.CreateAccount("nym-user-1", "pw2").ok());
  EXPECT_TRUE(cloud.Authenticate("nym-user-1", "pw1").ok());
  EXPECT_FALSE(cloud.Authenticate("nym-user-1", "wrong").ok());
  // Unknown account and wrong password are indistinguishable.
  EXPECT_EQ(cloud.Authenticate("ghost", "pw").code(),
            cloud.Authenticate("nym-user-1", "wrong").code());
}

TEST(CloudTest, ObjectStorage) {
  Simulation sim(1);
  CloudService cloud(sim, "drop.example.com");
  ASSERT_TRUE(cloud.CreateAccount("user", "pw").ok());
  StoredObject object;
  object.data = BytesFromString("ciphertext");
  object.logical_size = 5 * kMiB;
  ASSERT_TRUE(cloud.Put("user", "nym-a", object).ok());
  auto got = cloud.Get("user", "nym-a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->logical_size, 5 * kMiB);
  auto names = cloud.List("user");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"nym-a"});
  EXPECT_TRUE(cloud.Delete("user", "nym-a").ok());
  EXPECT_FALSE(cloud.Get("user", "nym-a").ok());
  EXPECT_FALSE(cloud.Put("ghost", "x", StoredObject{}).ok());
}

TEST(CloudTest, FreeTierQuotaEnforced) {
  Simulation sim(1);
  CloudService cloud(sim, "drop.example.com");
  ASSERT_TRUE(cloud.CreateAccount("user", "pw").ok());

  // Quota counts logical bytes, so the objects need not hold any data.
  StoredObject big;
  big.logical_size = 1536 * kMiB;
  ASSERT_TRUE(cloud.Put("user", "nym-a", big).ok());
  // A second 1.5 GiB object would exceed the 2 GiB free tier.
  ASSERT_EQ(kCloudFreeQuotaBytes, 2 * kGiB);
  EXPECT_EQ(cloud.Put("user", "nym-b", big).code(), StatusCode::kResourceExhausted);
  // Overwriting replaces, it doesn't add.
  StoredObject bigger;
  bigger.logical_size = 1946 * kMiB;  // ~1.9 GiB
  EXPECT_TRUE(cloud.Put("user", "nym-a", bigger).ok());
  // Deleting frees quota.
  ASSERT_TRUE(cloud.Delete("user", "nym-a").ok());
  EXPECT_TRUE(cloud.Put("user", "nym-b", big).ok());
}

TEST(CloudTest, AccessLogRecordsObservedSource) {
  Simulation sim(1);
  CloudService cloud(sim, "drop.example.com");
  Ipv4Address exit(203, 0, 113, 42);
  cloud.LogAccess(Seconds(10), exit, "login");
  cloud.LogAccess(Seconds(12), exit, "put nym-a");
  ASSERT_EQ(cloud.access_log().size(), 2u);
  // What the provider knows: an exit relay touched an account. Nothing else.
  EXPECT_EQ(cloud.access_log()[0].observed_source, exit);
  EXPECT_TRUE(cloud.access_link() != nullptr);
  EXPECT_TRUE(sim.internet().Resolve("drop.example.com").ok());
}

// ---------------------------------------------------------------- NymArchive

struct ArchiveFixture {
  ArchiveFixture() {
    NYMIX_CHECK(anon.WriteFile("/home/user/.config/chromium/prefs",
                               Blob::FromString("theme=dark\nlogin=alice-nym\n"))
                    .ok());
    NYMIX_CHECK(anon.WriteFile("/home/user/.cache/chromium/f_000001",
                               Blob::Synthetic(8 * kMiB, 11, 0.85))
                    .ok());
    NYMIX_CHECK(comm.WriteFile("/var/lib/tor/state",
                               Blob::FromString("guard=relay2\nconsensus-cached=1\n"))
                    .ok());
  }
  MemFs anon;
  MemFs comm;
};

TEST(NymArchiveTest, SealOpenRoundTrip) {
  ArchiveFixture fixture;
  auto archive = NymArchiver::Seal(fixture.anon, fixture.comm, "my-nym", "hunter2", 1);
  ASSERT_TRUE(archive.ok());
  auto contents = NymArchiver::Open(archive->sealed, "my-nym", "hunter2", 1);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(StringFromBytes(
                contents->anonvm_writable->ReadFile("/home/user/.config/chromium/prefs")
                    ->Materialize()),
            "theme=dark\nlogin=alice-nym\n");
  EXPECT_EQ(StringFromBytes(
                contents->commvm_writable->ReadFile("/var/lib/tor/state")->Materialize()),
            "guard=relay2\nconsensus-cached=1\n");
  auto cache = contents->anonvm_writable->ReadFile("/home/user/.cache/chromium/f_000001");
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache->size(), 8 * kMiB);
}

TEST(NymArchiveTest, WrongPasswordRejected) {
  ArchiveFixture fixture;
  auto archive = NymArchiver::Seal(fixture.anon, fixture.comm, "my-nym", "hunter2", 1);
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ(NymArchiver::Open(archive->sealed, "my-nym", "wrong", 1).status().code(),
            StatusCode::kUnauthenticated);
}

TEST(NymArchiveTest, NameAndSequenceAreAuthenticated) {
  ArchiveFixture fixture;
  auto archive = NymArchiver::Seal(fixture.anon, fixture.comm, "my-nym", "hunter2", 3);
  ASSERT_TRUE(archive.ok());
  // A provider replaying version 3 as version 4 (or under another name)
  // must be detected.
  EXPECT_FALSE(NymArchiver::Open(archive->sealed, "my-nym", "hunter2", 4).ok());
  EXPECT_FALSE(NymArchiver::Open(archive->sealed, "other-nym", "hunter2", 3).ok());
  EXPECT_TRUE(NymArchiver::Open(archive->sealed, "my-nym", "hunter2", 3).ok());
}

TEST(NymArchiveTest, TamperedCiphertextRejected) {
  ArchiveFixture fixture;
  auto archive = NymArchiver::Seal(fixture.anon, fixture.comm, "my-nym", "hunter2", 1);
  ASSERT_TRUE(archive.ok());
  archive->sealed[archive->sealed.size() / 2] ^= 0x40;
  EXPECT_FALSE(NymArchiver::Open(archive->sealed, "my-nym", "hunter2", 1).ok());
}

TEST(NymArchiveTest, LogicalSizeIncludesSyntheticCache) {
  ArchiveFixture fixture;
  auto archive = NymArchiver::Seal(fixture.anon, fixture.comm, "my-nym", "hunter2", 1);
  ASSERT_TRUE(archive.ok());
  // The 8 MiB synthetic cache dominates: logical size must reflect its
  // compressed estimate even though the sealed bytes are tiny.
  EXPECT_GT(archive->logical_size, 6 * kMiB);
  EXPECT_LT(archive->sealed.size(), 64 * kKiB);
  EXPECT_GT(NymArchiver::AnonVmFraction(fixture.anon, fixture.comm), 0.95);
}

TEST(NymArchiveTest, EmptyFilesystemsRoundTrip) {
  MemFs anon, comm;
  auto archive = NymArchiver::Seal(anon, comm, "fresh", "pw", 0);
  ASSERT_TRUE(archive.ok());
  auto contents = NymArchiver::Open(archive->sealed, "fresh", "pw", 0);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->anonvm_writable->FileCount(), 0u);
  EXPECT_EQ(contents->commvm_writable->FileCount(), 0u);
}

TEST(NymArchiveTest, DifferentSequencesProduceDifferentCiphertexts) {
  ArchiveFixture fixture;
  auto a = NymArchiver::Seal(fixture.anon, fixture.comm, "nym", "pw", 1);
  auto b = NymArchiver::Seal(fixture.anon, fixture.comm, "nym", "pw", 2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->sealed, b->sealed);
}

TEST(GuardSeedTest, DeterministicAndDistinct) {
  uint64_t a = DeriveGuardSeed("drop.example.com/user1", "pw");
  uint64_t b = DeriveGuardSeed("drop.example.com/user1", "pw");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, DeriveGuardSeed("drop.example.com/user2", "pw"));
  EXPECT_NE(a, DeriveGuardSeed("drop.example.com/user1", "pw2"));
}

TEST(BlindObjectNameTest, DeterministicDistinctAndNameFree) {
  // The nymflow identity-taint rule flagged raw nym names reaching the
  // cloud provider's object index; BlindObjectName is the declassifier
  // that severed the path. Same (name, password) -> same object name, so
  // the owner can always re-derive it...
  std::string a = BlindObjectName("deniable", "nympw");
  EXPECT_EQ(a, BlindObjectName("deniable", "nympw"));
  // ...but neither the name nor the password alone determines it, and the
  // pseudonym never appears in the provider-visible string.
  EXPECT_NE(a, BlindObjectName("other-nym", "nympw"));
  EXPECT_NE(a, BlindObjectName("deniable", "other-pw"));
  EXPECT_EQ(a.find("deniable"), std::string::npos);
  EXPECT_EQ(a.rfind("obj-", 0), 0u);
}

// ---------------------------------------------------------------- LocalStore

TEST(LocalStoreTest, PutGetDelete) {
  LocalStore store("usb-2");
  NymArchive archive;
  archive.sealed = BytesFromString("ciphertext-bytes");
  archive.logical_size = 123;
  ASSERT_TRUE(store.Put("nym-a", archive).ok());
  auto got = store.Get("nym-a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->logical_size, 123u);
  EXPECT_TRUE(store.Delete("nym-a").ok());
  EXPECT_FALSE(store.Get("nym-a").ok());
  EXPECT_FALSE(store.Delete("nym-a").ok());
}

TEST(LocalStoreTest, ForensicInspectionShowsEncryptedBlobs) {
  LocalStore store("usb-2");
  EXPECT_FALSE(store.HasSuspiciousState());
  NymArchive archive;
  archive.sealed = Bytes(1000, 0xaa);
  ASSERT_TRUE(store.Put("twitter-nym", archive).ok());
  EXPECT_TRUE(store.HasSuspiciousState());
  auto entries = store.InspectDevice();
  ASSERT_EQ(entries.size(), 1u);
  // Confiscation reveals the blob's existence, name, and size — exactly the
  // deniability gap that cloud storage closes (§3.5).
  EXPECT_EQ(entries[0].name, "twitter-nym");
  EXPECT_EQ(entries[0].stored_bytes, 1000u);
}

}  // namespace
}  // namespace nymix
