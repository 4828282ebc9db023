// The pluggable anonymizer interface (§3.3/§4.1). An Anonymizer lives
// inside a nym's CommVM; the AnonVM's traffic reaches the Internet only
// through it. Implementations: TorClient, DissentClient, IncognitoVpn,
// SweetTunnel, and ChainedAnonymizer for "best of both worlds" serial
// composition.
//
// An anonymizer is constructed around a ClientAttachment: the CommVM's
// outbound link plus the ordered client-side links its flows traverse
// (vm uplink, host uplink). Control traffic goes out as packets annotated
// with the anonymizer's name — which is exactly what the §5.1 uplink
// capture is allowed to see besides DHCP.
#ifndef SRC_ANON_ANONYMIZER_H_
#define SRC_ANON_ANONYMIZER_H_

#include <functional>
#include <memory>
#include <string>

#include "src/net/simulation.h"
#include "src/unionfs/mem_fs.h"
#include "src/util/fault.h"

namespace nymix {

enum class AnonymizerKind { kIncognito, kTor, kDissent, kSweet, kChained };

struct ClientAttachment {
  Simulation* sim = nullptr;
  // The CommVM's outbound link into the host router (packets: SendFromA).
  Link* vm_uplink = nullptr;
  // Ordered links client flows traverse toward the Internet.
  std::vector<Link*> client_links;
  // The host's public address — what a destination sees when the
  // anonymizer does NOT protect network identity (incognito mode).
  Ipv4Address host_public_ip;
};

// Result of a completed anonymous fetch, for linkability analysis.
struct FetchReceipt {
  SimTime completed_at = 0;
  // The network identity the destination observed (exit relay, VPN address,
  // the user's own address for incognito...). Linking two nyms is exactly
  // the question of whether these correlate.
  Ipv4Address observed_source;
};

class Anonymizer {
 public:
  virtual ~Anonymizer() = default;

  virtual AnonymizerKind kind() const = 0;
  virtual std::string_view Name() const = 0;

  // Bootstraps the tool (directory download, circuit build, DC-net join).
  // `ready` fires exactly once: with the time traffic could flow, or with a
  // Status when bootstrap failed for good (retries exhausted, superseded).
  // Implementations wrap `ready` in OnceCallback (src/util/fault.h), so a
  // dropped completion surfaces as kCancelled rather than silence.
  virtual void Start(std::function<void(Result<SimTime>)> ready) = 0;
  virtual bool ready() const = 0;

  // Anonymously performs a request/response exchange with `host` (DNS name
  // resolved inside the anonymizer — the AnonVM never does DNS, §4.1).
  virtual void Fetch(const std::string& host, uint64_t request_bytes, uint64_t response_bytes,
                     std::function<void(Result<FetchReceipt>)> done) = 0;

  // Multiplicative wire overhead on fetched bytes (Tor cells: ~1.12).
  virtual double OverheadFactor() const = 0;

  // Whether the destination/network can see the user's real address.
  virtual bool ProtectsNetworkIdentity() const = 0;

  // Persist/restore long-lived state (Tor entry guards) into the CommVM
  // filesystem (§3.5: quasi-persistent nyms keep anonymizer state).
  virtual Status SaveState(MemFs& fs) const {
    (void)fs;
    return OkStatus();
  }
  virtual Status RestoreState(const MemFs& fs) {
    (void)fs;
    return OkStatus();
  }

  // Incoming packet from the CommVM NIC addressed to this anonymizer.
  virtual void HandlePacket(const Packet& packet) { (void)packet; }
};

}  // namespace nymix

#endif  // SRC_ANON_ANONYMIZER_H_
