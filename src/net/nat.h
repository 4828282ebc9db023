// NatGateway: masquerading NAT between one or more inside links and one
// outside link. Three instances matter in Nymix: KVM's user-mode NAT giving
// each CommVM its Internet connection (§4.2), the host router carrying all
// CommVM traffic onto the physical uplink, and the incognito anonymizer
// which is "just" an IPTables masquerade (§4.1). A NAT rewrites outbound
// sources to its public address — the capture test asserting that no guest
// IP ever appears on the uplink rides on this — and drops unsolicited
// inbound packets.
#ifndef SRC_NET_NAT_H_
#define SRC_NET_NAT_H_

#include <map>
#include <set>
#include <tuple>

#include "src/net/link.h"

namespace nymix {

class NatGateway : public PacketSink {
 public:
  // The gateway attaches itself as side A of the outside link; inside links
  // are added with AttachInside (gateway is their side B).
  NatGateway(std::string name, Link* outside, Ipv4Address public_ip);

  void AttachInside(Link* inside);

  void OnPacket(const Packet& packet, Link& link, bool from_a) override;

  Ipv4Address public_ip() const { return public_ip_; }
  // nymlint:allow(dead-api): the NAT-leak check: tests assert unsolicited inbound packets are dropped
  uint64_t dropped_unsolicited() const { return dropped_unsolicited_; }
  // nymlint:allow(dead-api): tests check the NAT keeps one mapping per source
  size_t mapping_count() const { return by_outside_port_.size(); }

 private:
  struct Mapping {
    Link* inside_link = nullptr;
    Ipv4Address inside_ip;
    Port inside_port = 0;
  };

  std::string name_;
  Link* outside_;
  Ipv4Address public_ip_;
  Port next_port_ = 32768;
  // Keyed by Link::id(), not Link*: pointer keys would order (and allocate
  // NAT ports, via next_port_) by heap address instead of creation order.
  std::map<std::tuple<uint64_t, Ipv4Address, Port>, Port> by_inside_;
  std::map<Port, Mapping> by_outside_port_;
  std::set<uint64_t> inside_link_ids_;
  uint64_t dropped_unsolicited_ = 0;
};

}  // namespace nymix

#endif  // SRC_NET_NAT_H_
