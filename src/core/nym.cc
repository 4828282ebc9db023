#include "src/core/nym.h"

namespace nymix {

std::string_view NymModeName(NymMode mode) {
  switch (mode) {
    case NymMode::kEphemeral:
      return "ephemeral";
    case NymMode::kPersistent:
      return "persistent";
    case NymMode::kPreConfigured:
      return "pre-configured";
  }
  return "?";
}

Nym::Nym(std::string name, NymMode mode, Simulation& sim)
    : name_(std::move(name)), mode_(mode), sim_(sim) {}

Nym::~Nym() = default;

void Nym::InstallPolicy() {
  NYMIX_CHECK(anon_vm_ != nullptr && comm_vm_ != nullptr);
  NYMIX_CHECK(wire_ != nullptr && vm_uplink_ != nullptr);

  // CommVM: the policy core. Packets arriving on the wire are raw AnonVM
  // traffic — the CommVM never routes them anywhere; applications reach the
  // network exclusively through the anonymizer's own protocol (Fetch), so
  // a compromised AnonVM cannot address the LAN, the host, or other nyms.
  // Packets arriving on the vm uplink are anonymizer control replies.
  comm_vm_->SetPacketHandler([this](const Packet& packet, Link& link, bool from_a) {
    (void)from_a;
    if (&link == wire_) {
      ++leak_packets_dropped_;
      return;
    }
    if (&link == vm_uplink_ && anonymizer_ != nullptr) {
      anonymizer_->HandlePacket(packet);
    }
  });

  // AnonVM: only wire traffic is expected; anything else is dropped
  // (defense in depth — there is no other NIC to receive on).
  anon_vm_->SetPacketHandler([](const Packet&, Link&, bool) {});
}

}  // namespace nymix
