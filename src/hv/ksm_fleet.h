// Fleet-wide KSM reconcile: what samepage merging *would* save if the whole
// fleet's memory sat on one machine.
//
// Each host's KsmDaemon only merges within its own machine — that is the
// real kernel's scope, and in the parallel executor it is also the shard
// boundary. The fleet reconcile answers the cross-host question (every
// Nymix box boots the same release image, so image-backed pages duplicate
// across hosts exactly as they do across VMs): it merges every host's
// memory contents at once, in the same closed form as a host pass. Images
// are matched by content identity, not by object, so a warm-started host
// whose image was restored from a checkpoint merges with the rest.
//
// Determinism: Reconcile is pure and reads only the snapshots it is given
// (MemoryContents copies). Merged totals are sums, so they do not depend on
// host order, and a sharded run reconciles to the same totals as an
// unsharded one with the same per-host contents.
#ifndef SRC_HV_KSM_FLEET_H_
#define SRC_HV_KSM_FLEET_H_

#include <vector>

#include "src/hv/ksm.h"

namespace nymix {

struct FleetKsmStats {
  uint64_t hosts = 0;
  // Fleet-wide merge result (KsmStats semantics, §4.2 / Figure 3, but over
  // every host's pages at once).
  uint64_t pages_shared = 0;
  uint64_t pages_sharing = 0;
  // Sum of what per-host merging already achieves on its own.
  uint64_t local_pages_sharing = 0;

  uint64_t pages_saved() const { return pages_sharing - pages_shared; }
  uint64_t bytes_saved() const { return pages_saved() * kPageSize; }
  // Sharing visible only fleet-wide: pages whose content is unique within
  // their host but duplicated on another host.
  uint64_t cross_host_extra_sharing() const { return pages_sharing - local_pages_sharing; }
};

class FleetKsmIndex {
 public:
  // One KsmDaemon::Snapshot() per host, in host creation order. A fleet
  // whose nyms have all terminated reconciles to zero by design (§3.4:
  // wiped memory holds nothing to merge), which is why ShardedFleet
  // snapshots at a fixed virtual time while the nyms are still alive.
  static FleetKsmStats Reconcile(const std::vector<std::vector<MemoryContents>>& hosts);
};

}  // namespace nymix

#endif  // SRC_HV_KSM_FLEET_H_
