#include "src/anon/incognito.h"

namespace nymix {

void IncognitoVpn::Fetch(const std::string& host, uint64_t request_bytes,
                         uint64_t response_bytes,
                         std::function<void(Result<FetchReceipt>)> done) {
  if (!ready_) {
    done(FailedPreconditionError("incognito NAT not up"));
    return;
  }
  auto resolved = attachment_.sim->internet().Resolve(host);
  if (!resolved.ok()) {
    done(resolved.status());
    return;
  }
  std::vector<Link*> links = attachment_.client_links;
  if (Link* access = attachment_.sim->internet().AccessLink(*resolved)) {
    links.push_back(access);
  }
  Ipv4Address observed = attachment_.host_public_ip;
  attachment_.sim->flows().StartFlow(
      Route::Through(std::move(links)), request_bytes + response_bytes, 1.0,
      /*stall_timeout=*/0, [observed, done = std::move(done)](Result<SimTime> t) {
        if (!t.ok()) {
          done(t.status());
          return;
        }
        done(FetchReceipt{*t, observed});
      });
}

}  // namespace nymix
