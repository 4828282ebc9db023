#include "src/anon/sweet.h"

namespace nymix {
namespace {

constexpr SimDuration kMailBatchLatency = SecondsF(1.5);  // spool polling interval
constexpr uint64_t kMailBandwidthBps = 2'000'000;
constexpr double kMimeOverhead = 1.37;  // base64 + headers
constexpr SimDuration kAccountSetup = SecondsF(1.0);

}  // namespace

SweetTunnel::SweetTunnel(ClientAttachment attachment, uint64_t instance_id)
    : attachment_(attachment) {
  NYMIX_CHECK(attachment_.sim != nullptr);
  mail_link_ = attachment_.sim->CreateLink("sweet-mail-" + std::to_string(instance_id),
                                           kMailBatchLatency, kMailBandwidthBps);
  gateway_ip_ = attachment_.sim->internet().RegisterHost(
      "mail-" + std::to_string(instance_id) + ".sweet.net", &gateway_, mail_link_);
}

double SweetTunnel::OverheadFactor() const { return kMimeOverhead; }

void SweetTunnel::Start(std::function<void(Result<SimTime>)> ready) {
  auto once = OnceCallback<Result<SimTime>>(std::move(ready));
  attachment_.sim->loop().ScheduleAfter(kAccountSetup, [this, once]() mutable {
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
      Route::Through(std::move(links)), request_bytes + response_bytes, kMimeOverhead,
      /*stall_timeout=*/0, [observed, done = std::move(done)](Result<SimTime> t) {
        if (!t.ok()) {
          done(t.status());
          return;
        }
        done(FetchReceipt{*t, observed});
      });
}

}  // namespace nymix
