#include "src/hv/ksm_fleet.h"

namespace nymix {

FleetKsmStats FleetKsmIndex::Reconcile(const std::vector<std::vector<MemoryContents>>& hosts) {
  FleetKsmStats stats;
  stats.hosts = hosts.size();
  std::vector<const MemoryContents*> fleet;
  for (const std::vector<MemoryContents>& host : hosts) {
    std::vector<const MemoryContents*> local;
    for (const MemoryContents& memory : host) {
      local.push_back(&memory);
      fleet.push_back(&memory);
    }
    stats.local_pages_sharing += MergeContents(local).pages_sharing;
  }
  KsmStats merged = MergeContents(fleet);
  stats.pages_shared = merged.pages_shared;
  stats.pages_sharing = merged.pages_sharing;
  return stats;
}

}  // namespace nymix
