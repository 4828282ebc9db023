// Kernel samepage merging model (§4.2, Figure 3). The daemon periodically
// scans every VM's shareable pages and merges duplicates: n pages with the
// same content cost one physical page after merging. Because all Nymix VMs
// boot from the same base image, image-backed pages merge across nyms —
// the paper measures "over 5% saving at 8 nyms".
//
// Merging is computed in closed form from each memory's MemoryContents
// (src/hv/guest_memory.h): no page is enumerated and no per-page state is
// kept. A pass costs O(image blocks) per distinct mapping (in a fleet, one
// per VM role) plus O(log blocks) per memory. A pass whose memories
// all kept their write-generation, with none retired, reuses the last
// result. tests/ksm_property_test.cc checks the closed form against a
// brute-force page-array model kept in tests/ksm_model.h.
#ifndef SRC_HV_KSM_H_
#define SRC_HV_KSM_H_

#include <functional>
#include <map>
#include <vector>

#include "src/hv/guest_memory.h"
#include "src/util/event_loop.h"

namespace nymix {

struct KsmStats {
  // Physical pages holding merged content (kernel's pages_shared).
  uint64_t pages_shared = 0;
  // Guest pages mapped onto those (kernel's pages_sharing); the Figure 3
  // "shared pages" series.
  uint64_t pages_sharing = 0;
  // Host pages freed by merging: pages_sharing - pages_shared.
  uint64_t pages_saved() const { return pages_sharing - pages_shared; }
  uint64_t bytes_saved() const { return pages_saved() * kPageSize; }
};

// What one merge over every page `memories` describe yields. Images are
// matched by content identity, so memories mapped from distinct but
// identical image objects (say, one restored from a checkpoint) merge as
// one image.
KsmStats MergeContents(const std::vector<const MemoryContents*>& memories);

class KsmDaemon {
 public:
  // `memories` enumerates the live VMs' guest memories at scan time.
  KsmDaemon(EventLoop& loop, std::function<std::vector<const GuestMemory*>()> memories);

  // One scan pass (instantaneous in virtual time). Real ksmd sweeps
  // incrementally; Nymix's measurement points are all post-stabilization,
  // so a full merge summary at each tick is the faithful result.
  KsmStats ScanNow();

  // Enables periodic scanning. Calling Start while already running adopts
  // the new cadence immediately: the pending tick is rescheduled to fire
  // `interval` from now instead of riding out the old interval.
  void Start(SimDuration interval);
  void Stop();

  const KsmStats& stats() const { return stats_; }
  bool running() const { return running_; }

  // Fleet-wide reconcile input (src/hv/ksm_fleet.h): a copy of every live
  // memory's contents, taken now regardless of when ScanNow last ran.
  std::vector<MemoryContents> Snapshot() const;

  // Scan-effort introspection (always counted, metrics attached or not):
  // a memory is merged when its generation moved since the last pass (or
  // it is new) and skipped otherwise.
  uint64_t passes() const { return passes_; }
  uint64_t memories_merged() const { return memories_merged_; }
  uint64_t memories_skipped() const { return memories_skipped_; }

 private:
  void Tick();
  void RefreshMeters();

  EventLoop& loop_;
  std::function<std::vector<const GuestMemory*>()> memories_;
  KsmStats stats_;
  SimDuration interval_ = 0;
  bool running_ = false;
  uint64_t pending_event_ = 0;

  // GuestMemory::id() -> generation, for every memory the last pass saw.
  std::map<uint64_t, uint64_t> generations_;

  uint64_t passes_ = 0;
  uint64_t memories_merged_ = 0;
  uint64_t memories_skipped_ = 0;

  // Cached instruments, refreshed when the loop's observability epoch
  // moves (see EventLoop::observability_epoch()).
  uint64_t meters_epoch_ = 0;
  Counter* passes_counter_ = nullptr;
  Counter* pages_scanned_counter_ = nullptr;
  Counter* memories_skipped_counter_ = nullptr;
  Gauge* pages_shared_gauge_ = nullptr;
  Gauge* pages_sharing_gauge_ = nullptr;
};

}  // namespace nymix

#endif  // SRC_HV_KSM_H_
