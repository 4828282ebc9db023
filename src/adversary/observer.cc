#include "src/adversary/observer.h"

namespace nymix {

void PassiveObserver::OnPacket(const Link& link, const PacketMetadata& meta) {
  (void)link;
  ++packets_seen_;
  bytes_seen_ += meta.wire_bytes;
}

void PassiveObserver::OnFlowEnded(const Link& link, const FlowMetadata& meta) {
  (void)link;
  FlowObservation obs;
  obs.vantage = vantage_;
  obs.site = site_;
  obs.flow_id = meta.flow_id;
  obs.created_at = meta.created_at;
  obs.ended_at = meta.ended_at;
  obs.wire_bytes = meta.wire_bytes;
  obs.completed = meta.completed;
  flows_.push_back(obs);
  bytes_seen_ += meta.wire_bytes;
}

}  // namespace nymix
