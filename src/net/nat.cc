#include "src/net/nat.h"

namespace nymix {

NatGateway::NatGateway(std::string name, Link* outside, Ipv4Address public_ip)
    : name_(std::move(name)), outside_(outside), public_ip_(public_ip) {
  NYMIX_CHECK(outside_ != nullptr);
  outside_->AttachA(this);
}

void NatGateway::AttachInside(Link* inside) {
  NYMIX_CHECK(inside != nullptr);
  inside->AttachB(this);
  inside_link_ids_.insert(inside->id());
}

void NatGateway::OnPacket(const Packet& packet, Link& link, bool from_a) {
  (void)from_a;
  if (&link == outside_) {
    // Inbound: only packets matching an existing mapping pass.
    if (packet.dst_ip != public_ip_) {
      ++dropped_unsolicited_;
      return;
    }
    auto it = by_outside_port_.find(packet.dst_port);
    if (it == by_outside_port_.end()) {
      ++dropped_unsolicited_;
      return;
    }
    Packet translated = packet;
    translated.dst_ip = it->second.inside_ip;
    translated.dst_port = it->second.inside_port;
    it->second.inside_link->SendFromB(std::move(translated));
    return;
  }

  NYMIX_CHECK_MSG(inside_link_ids_.count(link.id()) > 0, "NAT received packet on unknown link");
  // Outbound: allocate (or reuse) a port mapping and masquerade.
  auto key = std::make_tuple(link.id(), packet.src_ip, packet.src_port);
  auto it = by_inside_.find(key);
  if (it == by_inside_.end()) {
    Port outside_port = next_port_++;
    it = by_inside_.emplace(key, outside_port).first;
    by_outside_port_[outside_port] = Mapping{&link, packet.src_ip, packet.src_port};
  }
  Packet translated = packet;
  translated.src_ip = public_ip_;
  translated.src_port = it->second;
  outside_->SendFromA(std::move(translated));
}

}  // namespace nymix
