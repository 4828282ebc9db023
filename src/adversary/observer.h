// PassiveObserver: one adversary vantage point clamped onto a Link via the
// metadata-only tap interface (src/net/tap.h). The paper's threat model
// (§2) grants the adversary the wire, not the endpoint: an observer at an
// entry position (the host's shaped uplink — where an ISP or local-network
// attacker sits) or an exit position (a destination's access link — where
// a malicious exit relay or server-side tap sits) sees timing, sizes and
// endpoints, and nothing else.
//
// Observers are passive by contract: they accumulate observations into
// plain vectors and never touch simulation state from the hooks. All
// analysis happens post-run (src/adversary/attacks.h), serially, in
// vantage order — so adversary metrics are byte-identical across thread
// counts like every other output.
#ifndef SRC_ADVERSARY_OBSERVER_H_
#define SRC_ADVERSARY_OBSERVER_H_

#include <cstdint>
#include <vector>

#include "src/net/tap.h"

namespace nymix {

enum class TapSite { kEntry, kExit };

// One bulk flow as seen from one vantage point. Derived purely from the
// tap's FlowMetadata — the analyzer side never learns more than a wire tap
// could.
struct FlowObservation {
  int vantage = 0;  // observer ordinal (entry: host index; exit: site ordinal)
  TapSite site = TapSite::kEntry;
  uint64_t flow_id = 0;  // simulator key; analyzers treat it as ground truth only
  SimTime created_at = 0;
  SimTime ended_at = 0;
  uint64_t wire_bytes = 0;
  bool completed = false;
};

class PassiveObserver : public LinkTap {
 public:
  PassiveObserver(TapSite site, int vantage) : site_(site), vantage_(vantage) {}

  void OnPacket(const Link& link, const PacketMetadata& meta) override;
  void OnFlowEnded(const Link& link, const FlowMetadata& meta) override;

  TapSite site() const { return site_; }
  int vantage() const { return vantage_; }
  const std::vector<FlowObservation>& flows() const { return flows_; }
  uint64_t packets_seen() const { return packets_seen_; }
  uint64_t bytes_seen() const { return bytes_seen_; }

 private:
  TapSite site_;
  int vantage_;
  std::vector<FlowObservation> flows_;
  uint64_t packets_seen_ = 0;
  uint64_t bytes_seen_ = 0;
};

}  // namespace nymix

#endif  // SRC_ADVERSARY_OBSERVER_H_
