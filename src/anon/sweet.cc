#include "src/anon/sweet.h"

namespace nymix {

SweetTunnel::SweetTunnel(ClientAttachment attachment, uint64_t instance_id, Config config)
    : attachment_(attachment), config_(config) {
  NYMIX_CHECK(attachment_.sim != nullptr);
  mail_link_ = attachment_.sim->CreateLink("sweet-mail-" + std::to_string(instance_id),
                                           config_.mail_batch_latency,
                                           config_.mail_bandwidth_bps);
  gateway_ip_ = attachment_.sim->internet().RegisterHost(
      "mail-" + std::to_string(instance_id) + ".sweet.net", &gateway_, mail_link_);
}

void SweetTunnel::Start(std::function<void(Result<SimTime>)> ready) {
  auto once = OnceCallback<Result<SimTime>>(std::move(ready));
  attachment_.sim->loop().ScheduleAfter(config_.account_setup, [this, once]() mutable {
    ready_ = true;
    once(attachment_.sim->now());
  });
}

void SweetTunnel::Fetch(const std::string& host, uint64_t request_bytes, uint64_t response_bytes,
                        std::function<void(Result<FetchReceipt>)> done) {
  if (!ready_) {
    done(FailedPreconditionError("SWEET tunnel not ready"));
    return;
  }
  auto resolved = attachment_.sim->internet().Resolve(host);
  if (!resolved.ok()) {
    done(resolved.status());
    return;
  }
  std::vector<Link*> links = attachment_.client_links;
  links.push_back(mail_link_);
  if (Link* access = attachment_.sim->internet().AccessLink(*resolved);
      access != nullptr && access != mail_link_) {
    links.push_back(access);
  }
  Ipv4Address observed = gateway_ip_;
  attachment_.sim->flows().StartFlow(
      Route::Through(std::move(links)), request_bytes + response_bytes, config_.mime_overhead,
      /*stall_timeout=*/0, [observed, done = std::move(done)](Result<SimTime> t) {
        if (!t.ok()) {
          done(t.status());
          return;
        }
        done(FetchReceipt{*t, observed});
      });
}

}  // namespace nymix
