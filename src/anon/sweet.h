// SWEET model (§4.1): "Serving the Web by Exploiting Email Tunnels" — the
// paper's own implementation of Houmansadr et al.'s circumvention tool.
// Web traffic is wrapped in email messages exchanged with a benign mail
// provider, so the cost model is dominated by mail-spool batching latency
// and MIME/base64 expansion, not bandwidth.
#ifndef SRC_ANON_SWEET_H_
#define SRC_ANON_SWEET_H_

#include "src/anon/anonymizer.h"

namespace nymix {

class SweetTunnel : public Anonymizer {
 public:
  SweetTunnel(ClientAttachment attachment, uint64_t instance_id);

  AnonymizerKind kind() const override { return AnonymizerKind::kSweet; }
  std::string_view Name() const override { return "SWEET"; }
  void Start(std::function<void(Result<SimTime>)> ready) override;
  bool ready() const override { return ready_; }
  void Fetch(const std::string& host, uint64_t request_bytes, uint64_t response_bytes,
             std::function<void(Result<FetchReceipt>)> done) override;
  double OverheadFactor() const override;
  bool ProtectsNetworkIdentity() const override { return true; }

  // nymlint:allow(dead-api): tests check a SWEET fetch shows the site the mail gateway, not the host
  Ipv4Address mail_gateway_ip() const { return gateway_ip_; }

 private:
  class MailGateway : public InternetHost {
   public:
    void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override {
      (void)packet;
      (void)reply;
    }
  };

  ClientAttachment attachment_;
  MailGateway gateway_;
  Ipv4Address gateway_ip_;
  Link* mail_link_;
  bool ready_ = false;
};

}  // namespace nymix

#endif  // SRC_ANON_SWEET_H_
