#include "src/hv/ksm.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace nymix {

namespace {

auto MappingKey(const MemoryContents& memory) {
  return std::tie(memory.image->identity(), memory.cycles, memory.prefixes);
}

// Pages per content rank that one mapping backs before copy-on-write:
// block b backs `cycles` pages plus one per prefix above b.
std::vector<uint64_t> MappedPages(const MemoryContents& memory) {
  const std::vector<uint32_t>& ranks = memory.image->ranks();
  std::vector<uint64_t> pages(memory.image->ids().size(), 0);
  size_t passed = 0;  // prefixes <= block
  for (uint64_t block = 0; block < ranks.size(); ++block) {
    while (passed < memory.prefixes.size() && memory.prefixes[passed] <= block) {
      ++passed;
    }
    pages[ranks[block]] += memory.cycles + (memory.prefixes.size() - passed);
  }
  return pages;
}

// Adds `group`, memories that share one mapping, to `totals` (pages per
// content rank of their image). Copy-on-write took each memory's `dirtied`
// pages from the lowest rank up: every rank below the memory's boundary
// rank whole, and the rest from the boundary rank itself.
void AddMapping(const std::vector<const MemoryContents*>& group, std::vector<uint64_t>& totals) {
  const std::vector<uint64_t> mapped = MappedPages(*group.front());
  const size_t ranks = mapped.size();
  for (size_t rank = 0; rank < ranks; ++rank) {
    totals[rank] += group.size() * mapped[rank];
  }
  std::vector<uint64_t> through;      // pages mapped at ranks <= index
  std::vector<uint64_t> boundaries;   // memories per boundary rank
  for (const MemoryContents* memory : group) {
    if (memory->dirtied == 0) {
      continue;
    }
    if (through.empty()) {
      through.resize(ranks);
      std::partial_sum(mapped.begin(), mapped.end(), through.begin());
      boundaries.assign(ranks + 1, 0);
    }
    size_t boundary = static_cast<size_t>(
        std::upper_bound(through.begin(), through.end(), memory->dirtied) - through.begin());
    ++boundaries[boundary];
    if (boundary < ranks) {
      totals[boundary] -= memory->dirtied - (boundary == 0 ? 0 : through[boundary - 1]);
    }
  }
  uint64_t covering = 0;  // memories whose boundary lies above `rank`
  for (size_t rank = boundaries.empty() ? 0 : ranks; rank-- > 0;) {
    covering += boundaries[rank + 1];
    totals[rank] -= covering * mapped[rank];
  }
}

}  // namespace

KsmStats MergeContents(const std::vector<const MemoryContents*>& memories) {
  uint64_t zero_pages = 0;
  std::vector<const MemoryContents*> mapped;
  for (const MemoryContents* memory : memories) {
    zero_pages += memory->zero_pages;
    if (memory->image != nullptr) {
      mapped.push_back(memory);
    }
  }
  std::sort(mapped.begin(), mapped.end(), [](const MemoryContents* a, const MemoryContents* b) {
    return MappingKey(*a) < MappingKey(*b);
  });

  // Pages per content rank, one entry per image identity.
  struct ImageTotals {
    const ImageContents* image;
    std::vector<uint64_t> pages;
  };
  std::vector<ImageTotals> images;
  std::vector<const MemoryContents*> group;
  for (size_t begin = 0; begin < mapped.size();) {
    const MemoryContents& head = *mapped[begin];
    group.clear();
    size_t end = begin;
    for (; end < mapped.size() && MappingKey(*mapped[end]) == MappingKey(head); ++end) {
      group.push_back(mapped[end]);
    }
    if (images.empty() || images.back().image->identity() != head.image->identity()) {
      images.push_back({head.image.get(), std::vector<uint64_t>(head.image->ids().size(), 0)});
    }
    AddMapping(group, images.back().pages);
    begin = end;
  }

  // Equal content ids are one content wherever they come from (the zero
  // page, or blocks two different images have in common): walk every
  // image's ascending ids together and merge per id.
  KsmStats stats;
  std::vector<size_t> next(images.size(), 0);
  bool zero_pending = zero_pages > 0;
  for (;;) {
    bool any = zero_pending;
    uint64_t id = kZeroPageContent;
    for (size_t i = 0; i < images.size(); ++i) {
      if (next[i] < images[i].pages.size()) {
        uint64_t candidate = images[i].image->ids()[next[i]];
        id = any ? std::min(id, candidate) : candidate;
        any = true;
      }
    }
    if (!any) {
      break;
    }
    uint64_t pages = 0;
    if (zero_pending && id == kZeroPageContent) {
      pages += zero_pages;
      zero_pending = false;
    }
    for (size_t i = 0; i < images.size(); ++i) {
      if (next[i] < images[i].pages.size() && images[i].image->ids()[next[i]] == id) {
        pages += images[i].pages[next[i]++];
      }
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
