// Property test for closed-form guest memory and KSM: random call sequences
// run against GuestMemory + KsmDaemon + FleetKsmIndex and, side by side,
// against the brute-force page-array model (tests/ksm_model.h). After every
// call the page counts must agree; every scan must agree on KsmStats and on
// its effort counters (pages scanned, memories merged and skipped); every
// reconcile must agree on FleetKsmStats.
//
// In the style of rapidcheck: each case is generated from a seed, and a
// failing case is shrunk, by dropping calls while it still fails, to a
// short sequence printed with its seed.
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/crypto/merkle.h"
#include "src/hv/ksm_fleet.h"
#include "src/obs/observability.h"
#include "src/util/prng.h"
#include "tests/ksm_model.h"

namespace nymix {
namespace {

constexpr int kHosts = 3;
constexpr uint64_t kReleaseBlocks = 64;
constexpr uint64_t kOtherBlocks = 48;
constexpr uint64_t kRamPages[] = {40, 97, 256, 300};

// Second image: some blocks repeat within it and some repeat the release
// image's, so contents are shared across images with different identities.
std::shared_ptr<const BaseImage> OtherImage(const BaseImage& release) {
  std::vector<Sha256Digest> digests;
  auto unique = BaseImage::CreateDistribution("other", 9, kOtherBlocks * kDiskBlockSize);
  for (uint64_t block = 0; block < kOtherBlocks; ++block) {
    if (block % 3 == 0) {
      digests.push_back(release.ReadBlockDigest(block % 8));
    } else if (block % 3 == 1) {
      digests.push_back(unique->ReadBlockDigest(block % 5));
    } else {
      digests.push_back(unique->ReadBlockDigest(block));
    }
  }
  MerkleTree tree = MerkleTree::Build(digests);
  auto image = BaseImage::CreateDistributionFromCheckpoint(
      "other", 9, kOtherBlocks * kDiskBlockSize, std::move(digests), std::move(tree));
  NYMIX_CHECK(image.ok());
  return *image;
}

struct Op {
  enum Kind { kBoot, kMap, kDirty, kWipe, kStop, kStart, kDestroy, kScan, kReconcile };
  Kind kind;
  int target;      // host (kBoot, kScan) or memory, modulo what exists
  int image;       // image kind for a memory's first map; copy for later maps
  uint64_t count;  // RAM pages (kBoot) or pages to map/dirty
};

std::string Describe(const std::vector<Op>& ops) {
  static const char* const kNames[] = {"boot",  "map",     "dirty", "wipe",     "stop",
                                       "start", "destroy", "scan",  "reconcile"};
  std::ostringstream out;
  for (const Op& op : ops) {
    out << "  " << kNames[op.kind] << " target=" << op.target << " image=" << op.image
        << " count=" << op.count << "\n";
  }
  return out.str();
}

std::vector<Op> Generate(uint64_t seed, int length) {
  Prng prng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < length; ++i) {
    Op op{};
    op.target = static_cast<int>(prng.NextBelow(16));
    op.image = static_cast<int>(prng.NextBelow(2 * kHosts));
    switch (prng.NextBelow(14)) {
      case 0:
      case 1:
        op.kind = Op::kBoot;
        op.count = kRamPages[prng.NextBelow(4)];
        break;
      case 2:
      case 3:
      case 4:
        op.kind = Op::kMap;
        // Up to three wraps of the release image, past any memory's zero
        // pages, with exact block-count multiples now and then.
        op.count = prng.NextBelow(4) == 0 ? kReleaseBlocks * prng.NextInRange(1, 3)
                                          : prng.NextBelow(3 * kReleaseBlocks + 40);
        break;
      case 5:
      case 6:
      case 7:
        op.kind = Op::kDirty;
        op.count = prng.NextBelow(3) == 0 ? prng.NextBelow(320) : prng.NextBelow(24);
        break;
      case 8:
        op.kind = Op::kWipe;
        break;
      case 9:
        op.kind = Op::kStop;
        break;
      case 10:
        op.kind = Op::kStart;
        break;
      case 11:
        op.kind = Op::kDestroy;
        break;
      case 12:
        op.kind = Op::kScan;
        break;
      default:
        op.kind = Op::kReconcile;
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// Which edges a run reached; a property that never met them would prove
// nothing.
struct Coverage {
  bool wrapped = false;        // one map ran past the image's block count
  bool capped = false;         // a map asked for more than the zero pages left
  bool remapped = false;       // a map added to pages an earlier map made
  bool image_dirtied = false;  // copy-on-write reached image pages
  bool skipped = false;        // a scan skipped an unchanged memory
  bool retired = false;        // a scan dropped a memory its last pass saw
  bool mixed_images = false;   // a reconcile merged both images at once

  void Add(const Coverage& other) {
    wrapped |= other.wrapped;
    capped |= other.capped;
    remapped |= other.remapped;
    image_dirtied |= other.image_dirtied;
    skipped |= other.skipped;
    retired |= other.retired;
    mixed_images |= other.mixed_images;
  }
};

// A distinct image object with `image`'s content identity, as a host that
// restored its image from a checkpoint boots.
std::shared_ptr<const BaseImage> RestoredCopy(const BaseImage& image) {
  auto copy = BaseImage::CreateDistributionFromCheckpoint(
      image.name(), image.seed(), image.size_bytes(), image.block_digests(), image.merkle());
  NYMIX_CHECK(copy.ok());
  return *copy;
}

// One run of a call sequence over kHosts hosts. Host 0 boots the interned
// release image and the others restored copies of it; each host builds its
// own copy of the second image. So every image has several objects, which
// KSM must match by content identity. Each host also has a loop with
// metrics on, a daemon over its running memories, and the model's
// bookkeeping of which memories the daemon's last pass saw unchanged.
class World {
 public:
  World() {
    for (int h = 0; h < kHosts; ++h) {
      auto host = std::make_unique<Host>();
      host->release =
          h == 0 ? BaseImage::CreateDistribution("nymix", 7, kReleaseBlocks * kDiskBlockSize)
                 : RestoredCopy(*hosts_.front()->release);
      host->other = OtherImage(*host->release);
      host->obs.metrics.set_enabled(true);
      host->loop.set_observability(&host->obs);
      Host* raw = host.get();
      host->ksm = std::make_unique<KsmDaemon>(host->loop, [this, raw] { return Running(*raw); });
      hosts_.push_back(std::move(host));
    }
  }

  const Coverage& coverage() const { return coverage_; }

  // Applies one call to both sides; returns a failure description, or ""
  // when they still agree.
  std::string Apply(const Op& op) {
    if (op.kind == Op::kBoot) {
      Host& host = *hosts_[static_cast<size_t>(op.target) % kHosts];
      memories_.push_back(Memory{&host, std::make_unique<GuestMemory>(op.count * kPageSize),
                                 PageArrayMemory(op.count)});
      return Check("boot", memories_.back());
    }
    if (op.kind == Op::kScan) {
      return Scan(*hosts_[static_cast<size_t>(op.target) % kHosts]);
    }
    if (op.kind == Op::kReconcile) {
      return Reconcile();
    }
    if (memories_.empty()) {
      return "";
    }
    size_t index = static_cast<size_t>(op.target) % memories_.size();
    Memory& memory = memories_[index];
    switch (op.kind) {
      case Op::kMap: {
        // One image kind per memory between wipes, but any host's copy.
        if (memory.image_kind < 0) {
          memory.image_kind = op.image % 2;
        }
        const Host& copy = *hosts_[static_cast<size_t>(op.image / 2) % kHosts];
        const BaseImage& image = memory.image_kind == 0 ? *copy.release : *copy.other;
        uint64_t zero = memory.model.zero_pages();
        coverage_.wrapped |= std::min(op.count, zero) > image.block_count();
        coverage_.capped |= op.count > zero && zero > 0;
        coverage_.remapped |= memory.model.image_pages() > 0 && zero > 0 && op.count > 0;
        memory.real->MapImagePages(image, op.count);
        memory.model.MapImagePages(image, op.count);
        ++memory.mutations;
        return Check("map", memory);
      }
      case Op::kDirty:
        coverage_.image_dirtied |= op.count > memory.model.zero_pages() &&
                                   memory.model.image_pages() > 0;
        memory.real->DirtyPages(op.count);
        memory.model.DirtyPages(op.count);
        ++memory.mutations;
        return Check("dirty", memory);
      case Op::kWipe:
        memory.real->Wipe();
        memory.model.Wipe();
        memory.image_kind = -1;
        ++memory.mutations;
        return Check("wipe", memory);
      case Op::kStop:
        memory.running = false;
        return "";
      case Op::kStart:
        memory.running = true;
        return "";
      default:  // kDestroy
        memories_.erase(memories_.begin() + static_cast<ptrdiff_t>(index));
        return "";
    }
  }

 private:
  struct Host {
    std::shared_ptr<const BaseImage> release;
    std::shared_ptr<const BaseImage> other;
    Observability obs;
    EventLoop loop;
    std::unique_ptr<KsmDaemon> ksm;
    // Model of the daemon's skip rule: per memory the daemon saw last pass
    // (by its real id), the mutation count it saw.
    std::map<uint64_t, uint64_t> last_seen;
  };
  struct Memory {
    Host* host;
    std::unique_ptr<GuestMemory> real;
    PageArrayMemory model;
    int image_kind = -1;
    uint64_t mutations = 0;
    bool running = true;
  };

  std::vector<const GuestMemory*> Running(const Host& host) const {
    std::vector<const GuestMemory*> out;
    for (const Memory& memory : memories_) {
      if (memory.host == &host && memory.running) {
        out.push_back(memory.real.get());
      }
    }
    return out;
  }

  std::vector<const PageArrayMemory*> RunningModels(const Host& host) const {
    std::vector<const PageArrayMemory*> out;
    for (const Memory& memory : memories_) {
      if (memory.host == &host && memory.running) {
        out.push_back(&memory.model);
      }
    }
    return out;
  }

  static std::string Check(const char* call, const Memory& memory) {
    const GuestMemory& real = *memory.real;
    if (real.zero_pages() != memory.model.zero_pages() ||
        real.image_pages() != memory.model.image_pages() ||
        real.unique_pages() != memory.model.unique_pages()) {
      std::ostringstream out;
      out << "after " << call << ": zero/image/unique " << real.zero_pages() << "/"
          << real.image_pages() << "/" << real.unique_pages() << ", model "
          << memory.model.zero_pages() << "/" << memory.model.image_pages() << "/"
          << memory.model.unique_pages();
      return out.str();
    }
    return "";
  }

  std::string Scan(Host& host) {
    uint64_t merged_before = host.ksm->memories_merged();
    uint64_t skipped_before = host.ksm->memories_skipped();
    uint64_t scanned_before = host.obs.metrics.GetCounter("hv.ksm.pages_scanned")->value();
    KsmStats real = host.ksm->ScanNow();

    KsmStats want = BruteForceMerge(RunningModels(host));
    uint64_t want_merged = 0;
    uint64_t want_skipped = 0;
    uint64_t want_scanned = 0;
    std::map<uint64_t, uint64_t> seen;
    for (const Memory& memory : memories_) {
      if (memory.host != &host || !memory.running) {
        continue;
      }
      auto last = host.last_seen.find(memory.real->id());
      if (last != host.last_seen.end() && last->second == memory.mutations) {
        ++want_skipped;
      } else {
        ++want_merged;
        want_scanned += memory.model.zero_pages() + memory.model.image_pages();
      }
      seen[memory.real->id()] = memory.mutations;
    }
    coverage_.skipped |= want_skipped > 0;
    for (const auto& [id, mutations] : host.last_seen) {
      (void)mutations;
      coverage_.retired |= seen.count(id) == 0;
    }
    host.last_seen = std::move(seen);

    std::ostringstream out;
    if (real.pages_shared != want.pages_shared || real.pages_sharing != want.pages_sharing) {
      out << "scan: shared/sharing " << real.pages_shared << "/" << real.pages_sharing
          << ", model " << want.pages_shared << "/" << want.pages_sharing;
    }
    uint64_t scanned = host.obs.metrics.GetCounter("hv.ksm.pages_scanned")->value();
    if (host.ksm->memories_merged() - merged_before != want_merged ||
        host.ksm->memories_skipped() - skipped_before != want_skipped ||
        scanned - scanned_before != want_scanned) {
      out << "scan: merged/skipped/pages_scanned " << host.ksm->memories_merged() - merged_before
          << "/" << host.ksm->memories_skipped() - skipped_before << "/"
          << scanned - scanned_before << ", model " << want_merged << "/" << want_skipped << "/"
          << want_scanned;
    }
    return out.str();
  }

  std::string Reconcile() {
    bool mapped[2] = {false, false};
    for (const Memory& memory : memories_) {
      if (memory.running && memory.image_kind >= 0 && memory.model.image_pages() > 0) {
        mapped[memory.image_kind] = true;
      }
    }
    coverage_.mixed_images |= mapped[0] && mapped[1];
    std::vector<std::vector<MemoryContents>> snapshots;
    std::vector<const PageArrayMemory*> fleet;
    uint64_t want_local = 0;
    for (const auto& host : hosts_) {
      snapshots.push_back(host->ksm->Snapshot());
      std::vector<const PageArrayMemory*> local = RunningModels(*host);
      want_local += BruteForceMerge(local).pages_sharing;
      fleet.insert(fleet.end(), local.begin(), local.end());
    }
    FleetKsmStats real = FleetKsmIndex::Reconcile(snapshots);
    KsmStats want = BruteForceMerge(fleet);
    if (real.hosts != static_cast<uint64_t>(kHosts) || real.pages_shared != want.pages_shared ||
        real.pages_sharing != want.pages_sharing || real.local_pages_sharing != want_local) {
      std::ostringstream out;
      out << "reconcile: shared/sharing/local " << real.pages_shared << "/" << real.pages_sharing
          << "/" << real.local_pages_sharing << ", model " << want.pages_shared << "/"
          << want.pages_sharing << "/" << want_local;
      return out.str();
    }
    return "";
  }

  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<Memory> memories_;
  Coverage coverage_;
};

// Runs `ops` on a fresh world; returns the first failure (with the index
// of the call that exposed it), or "".
std::string RunOps(const std::vector<Op>& ops, size_t* failed_at, Coverage* coverage = nullptr) {
  World world;
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string failure = world.Apply(ops[i]);
    if (!failure.empty()) {
      *failed_at = i;
      return failure;
    }
  }
  if (coverage != nullptr) {
    coverage->Add(world.coverage());
  }
  return "";
}

// Greedy shrink: drop calls one at a time while the sequence still fails.
std::vector<Op> Shrink(std::vector<Op> ops) {
  for (size_t i = ops.size(); i-- > 0;) {
    std::vector<Op> smaller = ops;
    smaller.erase(smaller.begin() + static_cast<ptrdiff_t>(i));
    size_t failed_at = 0;
    if (!RunOps(smaller, &failed_at).empty()) {
      smaller.resize(failed_at + 1);
      ops = std::move(smaller);
      i = std::min(i, ops.size());
    }
  }
  return ops;
}

TEST(KsmPropertyTest, ClosedFormMatchesPageArrayModel) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    std::vector<Op> ops = Generate(seed, 100);
    size_t failed_at = 0;
    if (!RunOps(ops, &failed_at, &coverage).empty()) {
      ops.resize(failed_at + 1);
      std::vector<Op> minimal = Shrink(ops);
      FAIL() << "seed " << seed << ": " << RunOps(minimal, &failed_at) << "\nminimal sequence:\n"
             << Describe(minimal);
    }
  }
  EXPECT_TRUE(coverage.wrapped);
  EXPECT_TRUE(coverage.capped);
  EXPECT_TRUE(coverage.remapped);
  EXPECT_TRUE(coverage.image_dirtied);
  EXPECT_TRUE(coverage.skipped);
  EXPECT_TRUE(coverage.retired);
  EXPECT_TRUE(coverage.mixed_images);
}

// Pinned cases, each one of the edges above on its own.
TEST(KsmPropertyTest, RepeatedMapsWrapAndCap) {
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, 300},      {Op::kMap, 0, 0, 100},
      {Op::kMap, 0, 2, 100},       {Op::kMap, 0, 4, kReleaseBlocks},
      {Op::kBoot, 1, 0, 97},       {Op::kMap, 1, 3, 1000},
      {Op::kScan, 0, 0, 0},        {Op::kScan, 1, 0, 0},
      {Op::kReconcile, 0, 0, 0},
  };
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at), "");
}

TEST(KsmPropertyTest, DirtyCrossesIntoImageWithPartialTakes) {
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, 256}, {Op::kMap, 0, 0, 150}, {Op::kMap, 0, 0, 20},
      {Op::kBoot, 0, 0, 256}, {Op::kMap, 1, 0, 150}, {Op::kMap, 1, 0, 20},
      {Op::kScan, 0, 0, 0},   {Op::kDirty, 0, 0, 90}, {Op::kDirty, 0, 0, 7},
      {Op::kScan, 0, 0, 0},   {Op::kDirty, 1, 0, 200}, {Op::kScan, 0, 0, 0},
      {Op::kReconcile, 0, 0, 0},
  };
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at), "");
}

TEST(KsmPropertyTest, RetirementAndUnchangedSkips) {
  std::vector<Op> ops = {
      {Op::kBoot, 0, 0, 97},  {Op::kBoot, 0, 0, 97},  {Op::kMap, 0, 0, 60},
      {Op::kMap, 1, 0, 60},   {Op::kScan, 0, 0, 0},   {Op::kScan, 0, 0, 0},
      {Op::kStop, 0, 0, 0},   {Op::kScan, 0, 0, 0},   {Op::kStart, 0, 0, 0},
      {Op::kScan, 0, 0, 0},   {Op::kWipe, 1, 0, 0},   {Op::kScan, 0, 0, 0},
      {Op::kDestroy, 0, 0, 0}, {Op::kScan, 0, 0, 0},
  };
  size_t failed_at = 0;
  EXPECT_EQ(RunOps(ops, &failed_at), "");
}

}  // namespace
}  // namespace nymix
