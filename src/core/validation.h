// §5.1 validation harness: the leak checks the paper performed with
// Wireshark and hand-crafted probe packets, as reusable functions shared
// by the test suite and the bench/validation binary.
#ifndef SRC_CORE_VALIDATION_H_
#define SRC_CORE_VALIDATION_H_

#include "src/core/nym_manager.h"

namespace nymix {

struct LeakProbeResult {
  size_t probes_sent = 0;
  size_t responses_received = 0;  // MUST be zero for a sound nymbox
  uint64_t dropped_by_commvm = 0;
};

// Fires raw packets from `from`'s AnonVM at the local network, the host,
// the Internet, and `other`'s VMs, then reports whether anything answered
// ("as if the host did not exist", §5.1). `other` may be null.
LeakProbeResult ProbeAnonVmIsolation(Simulation& sim, HostMachine& host, Nym& from, Nym* other);

// Checks the uplink capture against the §5.1 expectation: nothing but
// DHCP and anonymizer traffic, and no guest/private source address.
struct CaptureAudit {
  bool only_dhcp_and_anonymizers = true;
  bool no_private_sources = true;
  std::map<std::string, size_t> histogram;

  bool Passed() const { return only_dhcp_and_anonymizers && no_private_sources; }
};
CaptureAudit AuditUplinkCapture(const PacketCapture& capture);

// A deliberately chatty LAN device: answers every probe it hears. Used as
// the vacuity check for the isolation tests — attached to a direct link it
// demonstrably responds, so "no responses from a nymbox" means the probes
// were dropped, not that nobody would have answered.
class EchoResponder : public PacketSink {
 public:
  void OnPacket(const Packet& packet, Link& link, bool from_a) override;

  // nymlint:allow(dead-api): the isolation check: tests assert probes through the nymbox wire never reach a LAN neighbour
  size_t probes_heard() const { return probes_heard_; }

 private:
  size_t probes_heard_ = 0;
};

}  // namespace nymix

#endif  // SRC_CORE_VALIDATION_H_
