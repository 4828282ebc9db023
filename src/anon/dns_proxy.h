// DNS handling in the CommVM (§4.1): "While Tor does not support UDP
// redirection, it has a built-in DNS server. Dissent, on the other hand,
// does have support for UDP redirection. For tools that support neither,
// Nymix would need to convert UDP-based DNS requests to TCP before
// transmitting them over the communication tool."
//
// The DnsProxy is the piece of CommVM plumbing that fields the AnonVM's
// UDP DNS queries and answers them by whichever path the active
// anonymizer affords. A resolver outside the anonymous channel would be
// the classic DNS leak; the proxy's counters make "zero direct queries"
// testable.
#ifndef SRC_ANON_DNS_PROXY_H_
#define SRC_ANON_DNS_PROXY_H_

#include <memory>

#include "src/anon/anonymizer.h"

namespace nymix {

class DnsProxy {
 public:
  enum class Transport {
    kAnonymizerNative,     // Tor: resolved at the exit via the circuit
    kUdpProxy,             // Dissent / incognito: UDP rides the tool
    kUdpToTcpConversion,   // SWEET etc.: wrap the query in a TCP stream
  };
  static std::string_view TransportName(Transport transport);

  // Picks the §4.1 path for the given tool.
  static Transport TransportFor(AnonymizerKind kind);

  DnsProxy(Simulation& sim, Anonymizer* anonymizer, Transport transport);

  Transport transport() const { return transport_; }

  // Resolves `name` anonymously. Timing: one anonymized round trip, plus
  // an extra stream-setup round trip for UDP->TCP conversion. Results are
  // cached per name (positive answers only), like a local stub resolver.
  void Resolve(const std::string& name, std::function<void(Result<Ipv4Address>)> done);

  // nymlint:allow(dead-api): tests count the queries the proxy answered
  uint64_t queries() const { return queries_; }
  // nymlint:allow(dead-api): tests check the per-nym DNS cache
  uint64_t cache_hits() const { return cache_hits_; }
  // nymlint:allow(dead-api): tests check which anonymizers rewrite DNS lookups
  uint64_t conversions() const { return conversions_; }
  // Queries sent outside the anonymizer. Always zero by construction; the
  // counter exists so audits can assert it.
  // nymlint:allow(dead-api): the DNS-leak check: tests assert no lookup left the nym in the clear
  uint64_t direct_leaks() const { return 0; }

 private:
  SimDuration LookupLatency() const;

  Simulation& sim_;
  Anonymizer* anonymizer_;
  Transport transport_;
  // Lifetime token for in-flight queries: a nym crash (§3.4 wipe) destroys
  // the proxy while resolve events are still queued on the loop; those
  // events must evaporate, not touch the freed proxy or call into the
  // equally-dead browser.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  std::map<std::string, Ipv4Address> cache_;
  uint64_t queries_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t conversions_ = 0;
};

}  // namespace nymix

#endif  // SRC_ANON_DNS_PROXY_H_
