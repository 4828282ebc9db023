#include "src/net/internet.h"

namespace nymix {

void Internet::AttachUplink(Link* uplink) {
  NYMIX_CHECK(uplink != nullptr);
  uplink->AttachB(this);
}

Ipv4Address Internet::AllocatePublicIp() {
  // TEST-NET-3 and beyond; plenty for any experiment.
  uint32_t base = Ipv4Address(203, 0, 113, 1).value;
  return Ipv4Address(base + next_ip_++);
}

Ipv4Address Internet::RegisterHost(const std::string& name, InternetHost* host,
                                   Link* access_link) {
  NYMIX_CHECK(host != nullptr);
  Ipv4Address ip = AllocatePublicIp();
  dns_[name] = ip;
  hosts_[ip] = host;
  if (access_link != nullptr) {
    access_links_[ip] = access_link;
    access_link->AttachB(this);
  }
  return ip;
}

Link* Internet::AccessLink(Ipv4Address ip) const {
  auto it = access_links_.find(ip);
  return it == access_links_.end() ? nullptr : it->second;
}

Result<Ipv4Address> Internet::Resolve(const std::string& name) const {
  auto it = dns_.find(name);
  if (it == dns_.end()) {
    return NotFoundError("NXDOMAIN: " + name);
  }
  return it->second;
}

InternetHost* Internet::FindHost(Ipv4Address ip) const {
  if (down_hosts_.find(ip) != down_hosts_.end()) {
    return nullptr;
  }
  auto it = hosts_.find(ip);
  return it == hosts_.end() ? nullptr : it->second;
}

void Internet::SetHostUp(Ipv4Address ip, bool up) {
  if (up) {
    down_hosts_.erase(ip);
  } else {
    down_hosts_.insert(ip);
  }
  if (MetricsRegistry* meters = loop_.meters()) {
    meters->GetCounter(up ? "net.host_up_events" : "net.host_down_events")->Increment();
  }
  if (TraceRecorder* tracer = loop_.tracer()) {
    tracer->AddInstant("fault", (up ? "host_up:" : "host_down:") + ip.ToString(), "faults",
                       loop_.now());
  }
}

void Internet::SendBetweenHosts(Ipv4Address from_ip, Packet packet,
                                std::function<void(Packet)> reply_to_sender) {
  InternetHost* destination = FindHost(packet.dst_ip);
  if (destination == nullptr) {
    ++dropped_no_route_;
    return;
  }
  auto latency_of = [this](Ipv4Address ip) {
    Link* access = AccessLink(ip);
    return access != nullptr ? access->latency() : Millis(10);
  };
  SimDuration forward_latency = latency_of(from_ip) + latency_of(packet.dst_ip);
  packet.src_ip = from_ip;
  loop_.ScheduleAfter(
      forward_latency,
      [this, destination, packet = std::move(packet), forward_latency,
       reply_to_sender = std::move(reply_to_sender)]() mutable {
        destination->OnDatagram(
            packet, [this, forward_latency, reply_to_sender](Packet response) {
              loop_.ScheduleAfter(forward_latency, [reply_to_sender,
                                                    response = std::move(response)]() mutable {
                reply_to_sender(std::move(response));
              });
            });
      });
}

void Internet::OnPacket(const Packet& packet, Link& link, bool from_a) {
  (void)from_a;
  InternetHost* host = FindHost(packet.dst_ip);
  if (host == nullptr) {
    ++dropped_no_route_;
    return;
  }
  Link* reply_link = &link;
  host->OnDatagram(packet, [reply_link](Packet reply) { reply_link->SendFromB(std::move(reply)); });
}

}  // namespace nymix
