#include "src/hv/ksm.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>

namespace nymix {

namespace {

// A memory's image pages below rank `rank`. Block b backs one page per q
// in Q greater than b, where Q is the memory's prefixes plus block_count()
// repeated `cycles` times, so summed over the blocks below that rank this
// is the sum over Q of D(rank, q).
uint64_t MappedBelow(const MemoryContents& memory, uint64_t rank) {
  const ImageContents& image = *memory.image;
  uint64_t pages = memory.cycles * image.CountDominated(rank, image.block_count());
  for (uint64_t prefix : memory.prefixes) {
    pages += image.CountDominated(rank, prefix);
  }
  return pages;
}

// Where copy-on-write left a memory: it took the `dirtied` pages from the
// lowest rank up, so the memory backs every rank from `from` on whole,
// keeps `left` pages at rank from - 1, and nothing below.
struct Cut {
  const MemoryContents* memory;
  uint64_t from = 0;
  uint64_t left = 0;
};

Cut CutOf(const MemoryContents& memory) {
  Cut cut{&memory};
  if (memory.dirtied == 0) {
    return cut;
  }
  // The first rank R with more than `dirtied` pages below it (there is
  // one: the memory keeps at least one page).
  uint64_t lo = 1;
  uint64_t hi = memory.image->ids().size();
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (MappedBelow(memory, mid) > memory.dirtied) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  cut.from = lo;
  cut.left = MappedBelow(memory, lo) - memory.dirtied;
  return cut;
}

// The multiset union Q* of the Q of the memories that back a rank whole,
// as q -> multiplicity. A regular rank whose block is b then holds
// T(b) = #{q in Q* : q > b} pages.
using Covering = std::map<uint64_t, uint64_t>;

void Cover(Covering& covering, const MemoryContents& memory) {
  if (memory.cycles > 0) {
    covering[memory.image->block_count()] += memory.cycles;
  }
  for (uint64_t prefix : memory.prefixes) {
    ++covering[prefix];
  }
}

uint64_t PagesAt(const Covering& covering, uint64_t block) {
  uint64_t pages = 0;
  for (auto it = covering.upper_bound(block); it != covering.end(); ++it) {
    pages += it->second;
  }
  return pages;
}

// The largest and second-largest q in Q* (0 where it holds fewer): a block
// b has T(b) = 0 when b >= the largest, T(b) = 1 when it is between the two.
std::pair<uint64_t, uint64_t> TopTwo(const Covering& covering) {
  if (covering.empty()) {
    return {0, 0};
  }
  auto top = covering.rbegin();
  if (top->second > 1) {
    return {top->first, top->first};
  }
  auto next = std::next(top);
  return {top->first, next == covering.rend() ? 0 : next->first};
}

// Pages of one content id, evaluated one at a time.
struct Held {
  uint64_t id;
  uint64_t pages;
};

// Merges `memories`, which all map content equal to `image`, into `stats`,
// except for the special ranks, whose ids and pages go to `held` instead:
// those in `special` (ids that may merge beyond this image), the irregular
// ranks and the rank of each memory's copy-on-write cut. Between
// consecutive cuts the memories backing a rank whole do not change, so a
// segment's ranks with T = 0 and T = 1, which do not merge, are two
// dominance counts. Its other ranks merge: each is one shared page, and
// the pages they hold are the image's pages less the special ranks' and
// one per T = 1 rank.
void MergeImage(const ImageContents& image, const std::vector<const MemoryContents*>& memories,
                std::vector<uint64_t> special, KsmStats& stats, std::vector<Held>& held) {
  const uint64_t ranks = image.ids().size();
  const uint64_t blocks = image.block_count();
  std::vector<Cut> cuts;
  std::map<uint64_t, uint64_t> kept;  // cut rank -> pages its memories keep there
  uint64_t pages = 0;
  for (const MemoryContents* memory : memories) {
    Cut cut = CutOf(*memory);
    if (cut.from > 0) {
      kept[cut.from - 1] += cut.left;
      special.push_back(cut.from - 1);
    }
    cuts.push_back(cut);
    pages += memory->image_pages();
  }
  std::sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) { return a.from < b.from; });
  special.insert(special.end(), image.irregular_ranks().begin(), image.irregular_ranks().end());
  std::sort(special.begin(), special.end());
  special.erase(std::unique(special.begin(), special.end()), special.end());

  Covering covering;
  auto next_cut = cuts.begin();
  auto next_special = special.begin();
  uint64_t ones = 0;  // regular, non-special ranks holding one page
  for (uint64_t lo = 0; lo < ranks;) {
    for (; next_cut != cuts.end() && next_cut->from <= lo; ++next_cut) {
      Cover(covering, *next_cut->memory);
    }
    uint64_t hi = next_cut != cuts.end() ? next_cut->from : ranks;
    auto [top, second] = TopTwo(covering);
    uint64_t count = image.CountDominated(hi, blocks) - image.CountDominated(lo, blocks);
    uint64_t below_top = image.CountDominated(hi, top) - image.CountDominated(lo, top);
    uint64_t below_second = image.CountDominated(hi, second) - image.CountDominated(lo, second);
    uint64_t none = count - below_top;
    uint64_t one = below_top - below_second;
    for (; next_special != special.end() && *next_special < hi; ++next_special) {
      uint64_t rank = *next_special;
      auto cut_here = kept.find(rank);
      uint64_t at = cut_here == kept.end() ? 0 : cut_here->second;
      for (uint32_t block : image.BlocksAt(rank)) {
        uint64_t t = PagesAt(covering, block);
        at += t;
        --count;
        if (t == 0) {
          --none;
        } else if (t == 1) {
          --one;
        }
      }
      held.push_back({image.ids()[rank], at});
      pages -= at;
    }
    stats.pages_shared += count - none - one;
    ones += one;
    lo = hi;
  }
  stats.pages_sharing += pages - ones;
}

}  // namespace

KsmStats MergeContents(const std::vector<const MemoryContents*>& memories) {
  std::vector<Held> held = {{kZeroPageContent, 0}};
  std::vector<const MemoryContents*> mapped;
  for (const MemoryContents* memory : memories) {
    held.front().pages += memory->zero_pages;
    if (memory->image != nullptr && memory->image_pages() > 0) {
      mapped.push_back(memory);
    }
  }
  // The memories with image pages left, one group per image identity.
  std::sort(mapped.begin(), mapped.end(), [](const MemoryContents* a, const MemoryContents* b) {
    return a->image->identity() < b->image->identity();
  });
  std::vector<std::vector<const MemoryContents*>> images;
  for (const MemoryContents* memory : mapped) {
    if (images.empty() || images.back().front()->image->identity() != memory->image->identity()) {
      images.emplace_back();
    }
    images.back().push_back(memory);
  }

  // Ids two images hold in common, or one image shares with the zero page,
  // merge across images: those ranks are evaluated one at a time.
  std::vector<uint64_t> common = {kZeroPageContent};
  for (size_t i = 0; i < images.size(); ++i) {
    for (size_t j = i + 1; j < images.size(); ++j) {
      const std::vector<uint64_t>& a = images[i].front()->image->ids();
      const std::vector<uint64_t>& b = images[j].front()->image->ids();
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(common));
    }
  }
  std::sort(common.begin(), common.end());
  common.erase(std::unique(common.begin(), common.end()), common.end());

  KsmStats stats;
  for (const std::vector<const MemoryContents*>& group : images) {
    const ImageContents& image = *group.front()->image;
    std::vector<uint64_t> special;
    for (uint64_t id : common) {
      auto it = std::lower_bound(image.ids().begin(), image.ids().end(), id);
      if (it != image.ids().end() && *it == id) {
        special.push_back(static_cast<uint64_t>(it - image.ids().begin()));
      }
    }
    MergeImage(image, group, std::move(special), stats, held);
  }

  std::sort(held.begin(), held.end(), [](const Held& a, const Held& b) { return a.id < b.id; });
  for (size_t begin = 0, end = 0; begin < held.size(); begin = end) {
    uint64_t pages = 0;
    for (end = begin; end < held.size() && held[end].id == held[begin].id; ++end) {
      pages += held[end].pages;
    }
    if (pages > 1) {
      stats.pages_shared += 1;
      stats.pages_sharing += pages;
    }
  }
  return stats;
}

KsmDaemon::KsmDaemon(EventLoop& loop, std::function<std::vector<const GuestMemory*>()> memories)
    : loop_(loop), memories_(std::move(memories)) {}

void KsmDaemon::RefreshMeters() {
  if (meters_epoch_ == loop_.observability_epoch()) {
    return;
  }
  meters_epoch_ = loop_.observability_epoch();
  passes_counter_ = nullptr;
  pages_scanned_counter_ = nullptr;
  memories_skipped_counter_ = nullptr;
  pages_shared_gauge_ = nullptr;
  pages_sharing_gauge_ = nullptr;
  if (MetricsRegistry* meters = loop_.meters()) {
    passes_counter_ = meters->GetCounter("hv.ksm.passes");
    pages_scanned_counter_ = meters->GetCounter("hv.ksm.pages_scanned");
    memories_skipped_counter_ = meters->GetCounter("hv.ksm.memories_skipped");
    pages_shared_gauge_ = meters->GetGauge("hv.ksm.pages_shared");
    pages_sharing_gauge_ = meters->GetGauge("hv.ksm.pages_sharing");
  }
}

KsmStats KsmDaemon::ScanNow() {
  TraceSpan span(loop_.tracer(), loop_.clock(), "hv", "ksm_scan", "ksm");
  RefreshMeters();
  ++passes_;
  uint64_t pages_scanned = 0;
  uint64_t merged = 0;
  uint64_t skipped = 0;
  std::vector<const MemoryContents*> contents;
  std::map<uint64_t, uint64_t> generations;
  for (const GuestMemory* memory : memories_()) {
    contents.push_back(&memory->contents());
    generations[memory->id()] = memory->generation();
    auto last = generations_.find(memory->id());
    if (last != generations_.end() && last->second == memory->generation()) {
      ++skipped;
      continue;
    }
    ++merged;
    pages_scanned += memory->zero_pages() + memory->image_pages();
  }
  // Every memory skipped and none retired (the skipped ones are then all
  // of last pass's memories): nothing moved since the last merge.
  if (merged > 0 || skipped != generations_.size()) {
    stats_ = MergeContents(contents);
  }
  generations_ = std::move(generations);

  memories_merged_ += merged;
  memories_skipped_ += skipped;
  if (passes_counter_ != nullptr) {
    passes_counter_->Increment();
    pages_scanned_counter_->Increment(pages_scanned);
    memories_skipped_counter_->Increment(skipped);
    pages_shared_gauge_->Set(static_cast<double>(stats_.pages_shared));
    pages_sharing_gauge_->Set(static_cast<double>(stats_.pages_sharing));
  }
  return stats_;
}

void KsmDaemon::Start(SimDuration interval) {
  NYMIX_CHECK(interval > 0);
  interval_ = interval;
  if (running_) {
    // Already running: adopt the new cadence now. Without this the pending
    // tick would still fire on the old interval (and the first Start's
    // cadence would persist forever, since Tick reschedules from interval_
    // only after the stale event fires).
    loop_.Cancel(pending_event_);
    pending_event_ = loop_.ScheduleAfter(interval_, [this] {
      if (running_) {
        Tick();
      }
    });
    return;
  }
  running_ = true;
  Tick();
}

void KsmDaemon::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  loop_.Cancel(pending_event_);
  pending_event_ = 0;
}

std::vector<MemoryContents> KsmDaemon::Snapshot() const {
  std::vector<MemoryContents> snapshot;
  for (const GuestMemory* memory : memories_()) {
    snapshot.push_back(memory->contents());
  }
  return snapshot;
}

void KsmDaemon::Tick() {
  ScanNow();
  pending_event_ = loop_.ScheduleAfter(interval_, [this] {
    if (running_) {
      Tick();
    }
  });
}

}  // namespace nymix
