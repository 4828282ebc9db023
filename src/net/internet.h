// Internet: the simulation's wide-area network. Remote hosts (websites,
// cloud storage front-ends, Tor relays, Dissent servers, the DeterLab
// download server) register here by name and public IP; clients reach them
// through uplink links attached to the Internet node. A tiny DNS maps names
// to addresses, and packet replies are routed back down the uplink the
// request arrived on.
#ifndef SRC_NET_INTERNET_H_
#define SRC_NET_INTERNET_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/net/link.h"

namespace nymix {

class Internet;

class InternetHost {
 public:
  virtual ~InternetHost() = default;

  // Handles a datagram addressed to this host; `reply` routes a response
  // back toward the sender.
  virtual void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) = 0;
};

class Internet : public PacketSink {
 public:
  explicit Internet(EventLoop& loop) : loop_(loop) {}

  // Attaches a client-side uplink; the Internet is side B.
  void AttachUplink(Link* uplink);

  // Sequentially allocated public addresses (203.0.113.0/24 then onward).
  Ipv4Address AllocatePublicIp();

  // Registers a host under `name` at a fresh public IP; returns the IP.
  // `access_link` (optional) is the server's own last-mile link; flows to
  // the host traverse it in addition to the client-side links.
  Ipv4Address RegisterHost(const std::string& name, InternetHost* host,
                           Link* access_link = nullptr);

  // Server-side link for flow routes (nullptr if unconstrained).
  Link* AccessLink(Ipv4Address ip) const;

  // DNS lookup (the CommVM's DNS path, §4.1).
  Result<Ipv4Address> Resolve(const std::string& name) const;

  InternetHost* FindHost(Ipv4Address ip) const;

  // Marks a registered host down/up without unregistering it (relay crash /
  // restart). Packets to a down host vanish exactly like packets to an
  // unknown address — the §5.1 "as if the host did not exist" behavior.
  void SetHostUp(Ipv4Address ip, bool up);
  bool HostUp(Ipv4Address ip) const { return down_hosts_.find(ip) == down_hosts_.end(); }

  // Server-to-server datagram (relay-to-relay circuit extension, backend
  // replication...): delivered after both hosts' access latencies; the
  // destination's reply is routed back to `reply_to_sender`.
  void SendBetweenHosts(Ipv4Address from_ip, Packet packet,
                        std::function<void(Packet)> reply_to_sender);

  void OnPacket(const Packet& packet, Link& link, bool from_a) override;

  // nymlint:allow(dead-api): tests check unroutable packets are dropped
  uint64_t dropped_no_route() const { return dropped_no_route_; }

 private:
  EventLoop& loop_;
  std::map<std::string, Ipv4Address> dns_;
  std::map<Ipv4Address, InternetHost*> hosts_;
  std::map<Ipv4Address, Link*> access_links_;
  std::set<Ipv4Address> down_hosts_;
  uint32_t next_ip_ = 0;
  uint64_t dropped_no_route_ = 0;
};

}  // namespace nymix

#endif  // SRC_NET_INTERNET_H_
