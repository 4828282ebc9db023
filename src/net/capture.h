// PacketCapture: the simulation's Wireshark. §5.1 validates Nymix by
// capturing at the host uplink and checking that an idle client emits only
// DHCP and anonymizer traffic, and that AnonVMs emit nothing directly.
#ifndef SRC_NET_CAPTURE_H_
#define SRC_NET_CAPTURE_H_

#include <map>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/util/sim_clock.h"

namespace nymix {

struct CapturedPacket {
  SimTime time = 0;
  Packet packet;
};

class PacketCapture {
 public:
  void Record(SimTime time, const Packet& packet);

  const std::vector<CapturedPacket>& packets() const { return packets_; }
  size_t size() const { return packets_.size(); }

  // Count of packets whose annotation matches exactly.
  // nymlint:allow(dead-api): tests count captured packets by annotation
  size_t CountAnnotation(std::string_view annotation) const;

  // Distinct annotations seen with their counts (the §5.1 audit table).
  std::map<std::string, size_t> AnnotationHistogram() const;

  // True if every captured packet's annotation is in `allowed`.
  bool OnlyContains(const std::vector<std::string>& allowed) const;

 private:
  std::vector<CapturedPacket> packets_;
};

}  // namespace nymix

#endif  // SRC_NET_CAPTURE_H_
